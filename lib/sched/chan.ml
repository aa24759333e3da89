module Cqueue = Eden_util.Cqueue

type 'a t = { buf : 'a Cqueue.t; capacity : int; readers : Waitq.t; writers : Waitq.t }

let create ~capacity =
  if capacity <= 0 then invalid_arg "Chan.create: capacity must be positive";
  {
    buf = Cqueue.create ~capacity ();
    capacity;
    readers = Waitq.create "chan.get";
    writers = Waitq.create "chan.put";
  }

let is_full t = Cqueue.length t.buf >= t.capacity

let try_put t x =
  let ok = not (is_full t) in
  if ok then begin
    Cqueue.push t.buf x;
    ignore (Waitq.wake_one t.readers)
  end;
  ok

let rec put t x =
  if not (try_put t x) then begin
    Waitq.park t.writers;
    put t x
  end

let try_get t =
  let r = Cqueue.pop t.buf in
  if Option.is_some r then ignore (Waitq.wake_one t.writers);
  r

let rec get t =
  match try_get t with
  | Some x -> x
  | None ->
      Waitq.park t.readers;
      get t
