type 'a t = { q : 'a Queue.t; waiters : Waitq.t }

let create ?(label = "mailbox") () = { q = Queue.create (); waiters = Waitq.create label }

let send t x =
  Queue.push x t.q;
  ignore (Waitq.wake_one t.waiters)

let rec receive t =
  match Queue.take_opt t.q with
  | Some x ->
      (* A send wakes exactly one waiter, but that waiter may lose the
         race to a non-blocked receiver; pass the wake along so no
         message strands a sleeping fiber. *)
      if not (Queue.is_empty t.q) then ignore (Waitq.wake_one t.waiters);
      x
  | None ->
      Waitq.park t.waiters;
      receive t

let receive_timeout sched t delay =
  match Queue.take_opt t.q with
  | Some x -> Some x
  | None ->
      (* As in [Ivar.read_timeout]: whichever of send/timer loses the
         race is a no-op, and a won race deletes the loser's timer. *)
      let timer = ref (-1) in
      Sched.park ~reason:"mailbox (timeout)"
        (fun () w ->
          Waitq.park_external t.waiters w;
          timer := Sched.timer_cancellable sched delay (fun () -> ignore (Sched.wake w)))
        ();
      Sched.cancel_timer sched !timer;
      let x = Queue.take_opt t.q in
      if x <> None && not (Queue.is_empty t.q) then ignore (Waitq.wake_one t.waiters);
      x

let try_receive t = Queue.take_opt t.q
let length t = Queue.length t.q
