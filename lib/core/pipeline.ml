module Value = Eden_kernel.Value
module Kernel = Eden_kernel.Kernel
module Uid = Eden_kernel.Uid
module Ivar = Eden_sched.Ivar
module Sched = Eden_sched.Sched
module Obs = Eden_obs.Obs
module Net = Eden_net.Net
module Flowctl = Eden_flowctl.Flowctl
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
  discipline : discipline;
  source : Uid.t;
  filters : Uid.t list;
  pipes : Uid.t list;
  sink : Uid.t;
  stages : (string * Uid.t) list;
  done_ : unit Ivar.t;
  flows : (string * Obs.Flow.stage) list;
  meter : Retry.meter;
}

(* Round-robin stage placement over the requested nodes. *)
let placer kernel nodes =
  let nodes = match nodes with [] -> [ List.hd (Kernel.nodes kernel) ] | ns -> ns in
  let arr = Array.of_list nodes in
  let i = ref 0 in
  fun () ->
    let n = arr.(!i mod Array.length arr) in
    incr i;
    n

let filter_label i = Printf.sprintf "filter-%d" i
let pipe_label i = Printf.sprintf "pipe-%d" i

(* Stage labels in display order: source, filters, pipes, sink. *)
let labels discipline n =
  ("source" :: List.init n (fun i -> filter_label (i + 1)))
  @ (match discipline with
    | Conventional -> List.init (n + 1) (fun i -> pipe_label (i + 1))
    | Read_only | Write_only -> [])
  @ [ "sink" ]

(* How one family of stage builders erects each role in each
   discipline; the wiring supplies neighbours and placement. *)
type kit = {
  source_ro : Net.node_id -> Uid.t;
  source_wo : Net.node_id -> Uid.t -> Uid.t;
  filter_ro : int -> Net.node_id -> Uid.t -> Uid.t;
  filter_wo : int -> Net.node_id -> Uid.t -> Uid.t;
  filter_active : int -> Net.node_id -> Uid.t -> Uid.t -> Uid.t;
  pipe : int -> Net.node_id -> Uid.t;
  sink_ro : Net.node_id -> Uid.t -> Uid.t;
  sink_wo : Net.node_id -> Uid.t;
}

(* Per-discipline build order, which placement follows: read-only from
   the source (each stage needs its upstream's UID), write-only from
   the sink (the mirror image), conventional from the first pipe, with
   a write-only source and a read-only sink at its ends. *)
let wire kernel ~nodes ~n discipline kit ~done_ ~flows ~meter =
  let next_node = placer kernel nodes in
  let source, filters, pipes, sink =
    match discipline with
    | Read_only ->
        let source = kit.source_ro (next_node ()) in
        let rec go i up acc =
          if i > n then (up, List.rev acc)
          else
            let f = kit.filter_ro i (next_node ()) up in
            go (i + 1) f (f :: acc)
        in
        let last, filters = go 1 source [] in
        (source, filters, [], kit.sink_ro (next_node ()) last)
    | Write_only ->
        let sink = kit.sink_wo (next_node ()) in
        let rec go i down acc =
          if i < 1 then (down, acc)
          else
            let f = kit.filter_wo i (next_node ()) down in
            go (i - 1) f (f :: acc)
        in
        let first, filters = go n sink [] in
        (kit.source_wo (next_node ()) first, filters, [], sink)
    | Conventional ->
        let first_pipe = kit.pipe 1 (next_node ()) in
        let source = kit.source_wo (next_node ()) first_pipe in
        let rec go i up fs ps =
          if i > n then (up, List.rev fs, List.rev ps)
          else
            let out = kit.pipe (i + 1) (next_node ()) in
            let f = kit.filter_active i (next_node ()) up out in
            go (i + 1) out (f :: fs) (out :: ps)
        in
        let last, filters, pipes = go 1 first_pipe [] [ first_pipe ] in
        (source, filters, pipes, kit.sink_ro (next_node ()) last)
  in
  let stages = List.combine (labels discipline n) ((source :: filters) @ pipes @ [ sink ]) in
  { kernel; discipline; source; filters; pipes; sink; stages; done_; flows; meter }

let build kernel ?(nodes = []) ?(capacity = 0) ?(batch = 1) ?flowctl discipline ~gen ~filters
    ~consume =
  let done_ = Ivar.create () in
  let on_done () = Ivar.fill done_ () in
  let n = List.length filters in
  (* Structured stage registration: one flow meter per stage,
     registered in display order. *)
  let flows =
    List.map (fun l -> (l, Obs.register_stage (Kernel.obs kernel) l)) (labels discipline n)
  in
  let flow l = List.assoc l flows in
  let tr i = List.nth filters (i - 1) and fname = filter_label in
  (* Passive inputs (intakes, pipes) hold at least one item. *)
  let in_capacity = max 1 capacity in
  let kit =
    {
      source_ro = (fun node -> Stage.source_ro kernel ~node ~capacity ~flow:(flow "source") gen);
      source_wo =
        (fun node downstream ->
          Stage.source_wo kernel ~node ~batch ?flowctl ~flow:(flow "source") ~downstream gen);
      filter_ro =
        (fun i node upstream ->
          Stage.filter_ro kernel ~node ~name:(fname i) ~capacity ~batch ?flowctl
            ~flow:(flow (fname i)) ~upstream (tr i));
      filter_wo =
        (fun i node downstream ->
          Stage.filter_wo kernel ~node ~name:(fname i) ~capacity:in_capacity ~batch ?flowctl
            ~flow:(flow (fname i)) ~downstream (tr i));
      filter_active =
        (fun i node upstream downstream ->
          Stage.filter_active kernel ~node ~name:(fname i) ~batch ?flowctl ~flow:(flow (fname i))
            ~upstream ~downstream (tr i));
      pipe =
        (fun i node ->
          Stage.pipe kernel ~node ~capacity:in_capacity ~flow:(flow (pipe_label i)) ());
      sink_ro =
        (fun node upstream ->
          Stage.sink_ro kernel ~node ~batch ?flowctl ~flow:(flow "sink") ~upstream ~on_done consume);
      sink_wo =
        (fun node ->
          Stage.sink_wo kernel ~node ~capacity:in_capacity ~flow:(flow "sink") ~on_done consume);
    }
  in
  wire kernel ~nodes ~n discipline kit ~done_ ~flows ~meter:(Retry.create_meter ())

let resumable kernel ?(nodes = []) ?(capacity = 0) ?(batch = 1) ?flowctl ?policy ~seed
    discipline ~gen ~filters =
  let meter = Retry.create_meter () in
  let done_ = Ivar.create () in
  (* A sink restarted after completion reports it again. *)
  let on_done () = ignore (Ivar.try_fill done_ ()) in
  let n = List.length filters in
  let flowctl = match flowctl with Some f -> f | None -> Flowctl.fixed batch in
  (* Each stage's retry jitter derives from [seed] and its position, so
     a whole chaos run is a deterministic function of its seeds. *)
  let retry i = Retry.client ?policy ~meter (Int64.add seed (Int64.of_int i)) in
  let spec i = List.nth filters (i - 1) and fname = filter_label in
  let kit =
    {
      source_ro = (fun node -> Resumable.source_ro kernel ~node ~capacity gen);
      source_wo =
        (fun node downstream ->
          Resumable.source_wo kernel ~node ~flowctl ~retry:(retry 0) ~downstream gen);
      filter_ro =
        (fun i node upstream ->
          Resumable.filter_ro kernel ~node ~name:(fname i) ~capacity ~flowctl ~retry:(retry i)
            ~upstream (spec i));
      filter_wo =
        (fun i node downstream ->
          Resumable.filter_wo kernel ~node ~name:(fname i) ~flowctl ~retry:(retry i) ~downstream
            (spec i));
      filter_active =
        (fun i node upstream downstream ->
          Resumable.filter_active kernel ~node ~name:(fname i) ~flowctl ~retry:(retry i)
            ~upstream ~downstream (spec i));
      pipe =
        (fun i node ->
          Resumable.pipe kernel ~node ~name:(pipe_label i) ~capacity:(max 1 capacity) ());
      sink_ro =
        (fun node upstream ->
          Resumable.sink_ro kernel ~node ~flowctl ~retry:(retry (n + 1)) ~upstream ~on_done ());
      sink_wo = (fun node -> Resumable.sink_wo kernel ~node ~on_done ());
    }
  in
  wire kernel ~nodes ~n discipline kit ~done_ ~flows:[] ~meter

let start t =
  match t.discipline with
  | Read_only -> Kernel.poke t.kernel t.sink
  | Write_only -> Kernel.poke t.kernel t.source
  | Conventional ->
      Kernel.poke t.kernel t.source;
      List.iter (Kernel.poke t.kernel) t.filters;
      Kernel.poke t.kernel t.sink

let await t = Ivar.read t.done_

let await_timeout t ~deadline =
  Option.is_some (Ivar.read_timeout (Kernel.sched t.kernel) t.done_ deadline)

let run t =
  start t;
  await t

let output t = Resumable.sink_output t.kernel t.sink

let supervise ?ping t sup =
  List.iter (fun (label, u) -> Supervisor.watch sup ?ping ~label u) t.stages

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
