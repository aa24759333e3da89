module Value = Eden_kernel.Value
module Kernel = Eden_kernel.Kernel
module Uid = Eden_kernel.Uid
module Ivar = Eden_sched.Ivar
module Sched = Eden_sched.Sched
module Obs = Eden_obs.Obs
module Retry = Eden_resil.Retry
module Supervisor = Eden_resil.Supervisor

type discipline = Read_only | Write_only | Conventional

let discipline_name = function
  | Read_only -> "read-only"
  | Write_only -> "write-only"
  | Conventional -> "conventional"

let all_disciplines = [ Read_only; Write_only; Conventional ]

type t = {
  kernel : Kernel.t;
  pumps : Uid.t list;
  source : Uid.t;
  filters : Uid.t list;
  pipes : Uid.t list;
  sink : Uid.t;
  stages : (string * Uid.t) list;
  done_ : unit Ivar.t;
  flows : (string * Obs.Flow.stage) list;
  meter : Retry.meter;
}

let start t = List.iter (Kernel.poke t.kernel) t.pumps

let await t = Ivar.read t.done_

let await_timeout t ~deadline =
  Option.is_some (Ivar.read_timeout (Kernel.sched t.kernel) t.done_ deadline)

let run t =
  start t;
  await t

let output t = Resumable.sink_output t.kernel t.sink

let supervise t sup = List.iter (fun (label, u) -> Supervisor.watch sup ~label u) t.stages

let crash_at t uid at =
  let sched = Kernel.sched t.kernel in
  Sched.timer sched (Float.max 0.0 (at -. Sched.now sched)) (fun () -> Kernel.crash t.kernel uid)

let entity_count t = 2 + List.length t.filters + List.length t.pipes

(* Stall diagnosis: turn the scheduler's raw blocked-fiber report into
   per-stage attribution.  The kernel tracks which Eject owns every
   live fiber (coordinators and workers alike), so attribution is an
   exact UID comparison — no fiber-name string matching. *)

type stall = { fiber : string; reason : string; stage : string option }
type diagnosis = { at : float; stalls : stall list }

let stall_report ?(include_quiesced = false) ?(include_transport = false) kernel ~stages =
  let blocked = Sched.blocked_info (Kernel.sched kernel) in
  List.filter_map
    (fun (fid, fiber, reason) ->
      match Kernel.owner_of_fiber kernel fid with
      | Some uid when (not include_quiesced) && Kernel.is_quiesced kernel uid ->
          (* A draining/fenced/parked stage is supposed to sit blocked;
             reporting it would turn every elastic reconfiguration into
             a false hang. *)
          None
      | Some uid when (not include_transport) && Kernel.in_transport_wait kernel uid ->
          (* A stage waiting on a remote shard's socket round-trip is
             making progress elsewhere, not stalled. *)
          None
      | owner ->
          let stage =
            match owner with
            | None -> None
            | Some uid ->
                List.find_map
                  (fun (label, u) -> if Uid.equal u uid then Some label else None)
                  stages
          in
          Some { fiber; reason; stage })
    blocked

let diagnose t =
  if Ivar.is_filled t.done_ then None
  else
    Some
      {
        at = Sched.now (Kernel.sched t.kernel);
        stalls = stall_report t.kernel ~stages:t.stages;
      }

type prediction = { entities : int; invocations_per_datum : int }

let predict discipline ~n_filters =
  match discipline with
  | Read_only | Write_only ->
      { entities = n_filters + 2; invocations_per_datum = n_filters + 1 }
  | Conventional ->
      { entities = (2 * n_filters) + 3; invocations_per_datum = (2 * n_filters) + 2 }
