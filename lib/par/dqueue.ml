type 'a t = {
  mu : Mutex.t;
  nonempty : Condition.t;
  q : 'a Queue.t;
  mutable closed : bool;
  label : string;
}

let create ?(label = "dqueue") () =
  { mu = Mutex.create (); nonempty = Condition.create (); q = Queue.create (); closed = false; label }

(* [push] and [try_pop] run once per cross-shard message: they lock
   by hand rather than build a [Mutex.protect] closure, since nothing
   between the lock and the unlock can raise. *)
let push t x =
  Mutex.lock t.mu;
  let open_ = not t.closed in
  if open_ then begin
    Queue.push x t.q;
    Condition.signal t.nonempty
  end;
  Mutex.unlock t.mu;
  open_

let pop t =
  Mutex.protect t.mu (fun () ->
      while Queue.is_empty t.q && not t.closed do
        Condition.wait t.nonempty t.mu
      done;
      Queue.take_opt t.q)

let try_pop t =
  Mutex.lock t.mu;
  let x = Queue.take_opt t.q in
  Mutex.unlock t.mu;
  x

let close t =
  Mutex.protect t.mu (fun () ->
      if not t.closed then begin
        t.closed <- true;
        Condition.broadcast t.nonempty
      end)

let is_closed t = Mutex.protect t.mu (fun () -> t.closed)
let length t = Mutex.protect t.mu (fun () -> Queue.length t.q)
let label t = t.label
