type t = { mutable count : int; waiters : Waitq.t }

let create () = { count = 0; waiters = Waitq.create "waitgroup" }

let add t n = t.count <- t.count + n

let finish t =
  if t.count <= 0 then failwith "Waitgroup.finish: no outstanding tasks";
  t.count <- t.count - 1;
  if t.count = 0 then ignore (Waitq.wake_all t.waiters)

let rec wait t =
  if t.count > 0 then begin
    Waitq.park t.waiters;
    wait t
  end

