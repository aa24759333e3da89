(* Offers are kept in FIFO queues; each is claimed exactly once via its
   [taken] flag, so a cancelled fiber's stale offer is skipped rather
   than matched. *)

(* A sender's entry holds [Some v] in its cell; a receiver's entry holds
   an empty cell the sender fills.  The wake closure resumes the parked
   party. *)
type 'a t = {
  senders : ('a option ref * (unit -> unit)) Queue.t; (* value cell (filled), wake *)
  receivers : ('a option ref * (unit -> unit)) Queue.t; (* empty cell to fill, wake *)
}

let create () = { senders = Queue.create (); receivers = Queue.create () }

(* Pop the next live entry: cells whose option was consumed (senders) or
   already filled (receivers) by a racing partner are skipped. *)
let rec pop_live q ~live =
  match Queue.take_opt q with
  | None -> None
  | Some ((cell, _) as entry) -> if live cell then Some entry else pop_live q ~live

let send t v =
  match pop_live t.receivers ~live:(fun cell -> !cell = None) with
  | Some (cell, wake) ->
      cell := Some v;
      wake ()
  | None ->
      let cell = ref (Some v) in
      Sched.suspend ~reason:"rendezvous send" (fun resume ->
          Queue.push (cell, resume) t.senders)
      (* Woken when a receiver drains [cell]. *)

let recv t =
  match pop_live t.senders ~live:(fun cell -> !cell <> None) with
  | Some (cell, wake) -> (
      match !cell with
      | Some v ->
          cell := None;
          wake ();
          v
      | None -> assert false)
  | None ->
      let cell = ref None in
      Sched.suspend ~reason:"rendezvous recv" (fun resume ->
          Queue.push (cell, resume) t.receivers);
      (match !cell with
      | Some v ->
          cell := None;
          v
      | None ->
          (* Spurious wake (e.g. the matching sender was cancelled):
             treat as a failed rendezvous. *)
          failwith "Rendezvous.recv: woken without a value")

let try_send t v =
  match pop_live t.receivers ~live:(fun cell -> !cell = None) with
  | Some (cell, wake) ->
      cell := Some v;
      wake ();
      true
  | None -> false

let try_recv t =
  match pop_live t.senders ~live:(fun cell -> !cell <> None) with
  | Some (cell, wake) ->
      let v = !cell in
      cell := None;
      wake ();
      v
  | None -> None

let count_live q ~live = Queue.fold (fun n (cell, _) -> if live cell then n + 1 else n) 0 q

let waiting_senders t = count_live t.senders ~live:(fun c -> !c <> None)
