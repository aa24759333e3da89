type t = { label : string; q : Sched.waker Queue.t }

let create label = { label; q = Queue.create () }

let enqueue q w = Queue.push w q
let park t = Sched.park ~reason:t.label enqueue t.q
let park_external t w = Queue.push w t.q

(* A waker whose park already ended — its [receive_timeout] timed out,
   or its fiber was cancelled — wakes nobody, so it does not count: the
   next one in line gets the wake instead. *)
let rec wake_one t =
  if Queue.is_empty t.q then false else Sched.wake (Queue.take t.q) || wake_one t

let rec wake_all_from q n =
  if Queue.is_empty q then n else wake_all_from q (if Sched.wake (Queue.take q) then n + 1 else n)

let wake_all t = wake_all_from t.q 0

let waiters t = Queue.length t.q
