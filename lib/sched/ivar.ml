type 'a t = { mutable value : 'a option; waiters : Waitq.t }

let create () = { value = None; waiters = Waitq.create "ivar" }

let try_fill t v =
  match t.value with
  | Some _ -> false
  | None ->
      t.value <- Some v;
      ignore (Waitq.wake_all t.waiters);
      true

let fill t v = if not (try_fill t v) then failwith "Ivar.fill: already filled"

let rec read t =
  match t.value with
  | Some v -> v
  | None ->
      Waitq.park t.waiters;
      read t

let read_timeout sched t delay =
  (match t.value with
  | Some _ -> ()
  | None ->
      (* Race the ivar's waiter list against a timer; the shared waker
         is idempotent so whichever fires second is a no-op.  If the
         fill wins, delete the pending timer so timeout-heavy callers
         don't grow the heap with entries that never fire. *)
      let timer = ref (-1) in
      Sched.park ~reason:"ivar (timeout)"
        (fun () w ->
          Waitq.park_external t.waiters w;
          timer := Sched.timer_cancellable sched delay (fun () -> ignore (Sched.wake w)))
        ();
      Sched.cancel_timer sched !timer);
  t.value

let peek t = t.value
let is_filled t = t.value <> None
