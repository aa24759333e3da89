(* What one pass of a workload measured, and the instrumentation the
   traced passes wrap around calls into the libraries.

   The bench measures from outside: it times and counts the calls its
   own code makes into each library's public API and reads the
   libraries' own meters.  Nothing here runs inside lib/. *)

module Value = Eden_kernel.Value
module Kernel = Eden_kernel.Kernel
module Sched = Eden_sched.Sched
module Transform = Eden_transput.Transform
module Cluster = Eden_par.Cluster

type pass = {
  wall : float;  (** s: wall time of the run that moved the items *)
  speed : float;
      (** this host's speed around the run relative to the reference host
          ({!Speed}): times are multiplied by it, rates divided *)
  setup : float;  (** s: set-up this pass did before its run (a fresh population), or 0 *)
  cpu : float;  (** s: this process plus the reaped leaves *)
  leaf_cpu : float;
  items : int;
  bytes : int;  (** payload bytes that reached the sink *)
  errors : int;  (** items missing or differing from the oracle *)
  lat : float array;  (** us, one per item *)
  invocations : int;
  activations : int;
  op_transfer : int;
  op_deposit : int;
  cross : int;
  exchanges : int;  (** Transfers or Deposits the bench endpoint issued *)
  stalls : int;
  waits : float array;  (** us: each blocking call of the bench endpoint (traced) *)
  connects : float array;  (** us: Pull.connect (wake-streams, traced) *)
  drains : float array;  (** us: reads to end of stream (wake-streams, traced) *)
  loadgen : float;  (** s: bench generator and checker code (traced) *)
  filters : float;  (** s: filter self time (traced) *)
  credit_takes : int;
  items_in : int;
  items_out : int;
  sink_chunks : int;
  views_delta : int;
  hub_wire_chunks : int;
      (** chunks the bench wrote from the hub to a leaf: the wire's
          egress encodes a copy and never releases the handle it was
          given, so each stays counted in [Chunk.live_views] *)
  fibers_end : int;
  timers_end : int;
  minor_words : float;
  major_gcs : int;
}

let empty =
  {
    wall = 0.; speed = 1.; setup = 0.; cpu = 0.; leaf_cpu = 0.; items = 0; bytes = 0;
    errors = 0; lat = [||]; invocations = 0; activations = 0; op_transfer = 0;
    op_deposit = 0; cross = 0; exchanges = 0; stalls = 0; waits = [||]; connects = [||];
    drains = [||]; loadgen = 0.; filters = 0.; credit_takes = 0; items_in = 0;
    items_out = 0; sink_chunks = 0; views_delta = 0; hub_wire_chunks = 0; fibers_end = 0;
    timers_end = 0; minor_words = 0.; major_gcs = 0;
  }

(* Runs [f] and fills in wall time, CPU (self and reaped children) and
   GC deltas around it. *)
let timed f =
  let self0, kids0 = Clock.cpu () in
  let g0 = Gc.quick_stat () in
  let t0 = Clock.now_ns () in
  f ();
  let t1 = Clock.now_ns () in
  let self1, kids1 = Clock.cpu () in
  let g1 = Gc.quick_stat () in
  {
    empty with
    wall = (t1 -. t0) *. 1e-9;
    cpu = self1 -. self0 +. (kids1 -. kids0);
    leaf_cpu = kids1 -. kids0;
    minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
    major_gcs = g1.Gc.major_collections - g0.Gc.major_collections;
  }

let op n ops = Option.value ~default:0 (List.assoc_opt n ops)

(* Kernel meters of a finished cluster: every shard, leaves included. *)
let with_cluster_meters p c =
  let m = Cluster.meter c and ops = Cluster.op_counts c in
  {
    p with
    invocations = m.Kernel.Meter.invocations;
    activations = m.Kernel.Meter.activations;
    op_transfer = op Eden_transput.Proto.transfer_op ops;
    op_deposit = op Eden_transput.Proto.deposit_op ops;
    cross = Cluster.cross_messages c;
  }

(* Fibers still alive on [k] that no Eject owns: drivers, injected
   requests and bench clients, which must all have ended.  Eject
   coordinators legitimately stay parked on their mailboxes. *)
let stray_fibers k =
  List.length
    (List.filter
       (fun (fid, _, _) -> Kernel.owner_of_fiber k fid = None)
       (Sched.blocked_info (Kernel.sched k)))

(* Leak guards over the kernels still in this process: every shard in
   process, the hub alone when the leaves were forked. *)
let with_guards p kernels =
  {
    p with
    fibers_end = List.fold_left (fun a k -> a + stray_fibers k) 0 kernels;
    timers_end = List.fold_left (fun a k -> a + Sched.timer_count (Kernel.sched k)) 0 kernels;
  }

let hub_kernels c =
  match Cluster.mode c with
  | Cluster.Wire _ -> [ Cluster.kernel c 0 ]
  | Cluster.Deterministic | Cluster.Parallel ->
      List.init (Cluster.shard_count c) (Cluster.kernel c)

(* A transform wrapped so that the time it spends in its own code —
   between the returns from [next]/[emit] and its next call to either —
   accumulates in the shard's counter slot, and the handling of sampled
   items is recorded as a span from the input's arrival to its output. *)
let self_timed shm ~shard ~slot ~name (t : Transform.t) : Transform.t =
 fun next emit ->
  let mark = ref (Clock.now_ns ()) in
  let taken = ref 0 and arrived = ref 0. in
  let charge now = Shm.add shm ~shard ~slot ((now -. !mark) *. 1e-9) in
  let next () =
    charge (Clock.now_ns ());
    let r = next () in
    let now = Clock.now_ns () in
    mark := now;
    if r <> None then begin
      arrived := now;
      incr taken
    end;
    r
  in
  let emit v =
    let now = Clock.now_ns () in
    charge now;
    let item = !taken - 1 in
    if Shm.sampled item then
      Shm.span shm ~shard ~name ~item:(Shm.id_base shm + item) ~t0:!arrived ~t1:now;
    emit v;
    mark := Clock.now_ns ()
  in
  t next emit;
  charge (Clock.now_ns ())

(* Counts credit grants through the scheduler's note hook; the hook is
   installed before the leaves fork, so each process counts its own. *)
let count_credit_takes shm c =
  for s = 0 to Cluster.shard_count c - 1 do
    Sched.set_note_hook
      (Kernel.sched (Cluster.kernel c s))
      (Some
         (fun ~kind ~arg:_ ->
           if String.equal kind "credit.take" then Shm.add shm ~shard:s ~slot:Shm.credit_takes 1.))
  done

(* A span on the hub from [t0] to now for a whole pass, named by pass. *)
let span_pass shm name ~pass t0 =
  Shm.span shm ~shard:0 ~name:(Shm.span_id name) ~item:pass ~t0 ~t1:(Clock.now_ns ())

let flow_totals c =
  List.fold_left (fun (i, o) (_, a, b) -> (i + a, o + b)) (0, 0) (Cluster.flows c)

(* One launch of a workload's pipeline over a one-item document, timed
   from [Cluster.create] through [Cluster.run] (build, fork, handshake,
   shutdown): (build s, run s).  [build] returns the cluster and the
   check its output must pass. *)
let launch build =
  let t0 = Clock.now_ns () in
  let c, ok = build () in
  let t1 = Clock.now_ns () in
  Cluster.run c;
  let t2 = Clock.now_ns () in
  if not (ok ()) then failwith "perfbench: a one-item launch diverged from the oracle";
  ((t1 -. t0) *. 1e-9, (t2 -. t1) *. 1e-9)

(* A pass of [n] items on a fresh cluster.  [build] makes the cluster
   (untimed) and returns it with the workload's own state; the returned
   run times [Cluster.run], reads the meters every cluster workload
   reports, and lets [finish] add the workload's own. *)
let cluster_pass shm ~traced ~pass ~n build finish =
  Shm.reset_counters shm;
  Shm.set_id_base shm (pass * n);
  let views0 = Eden_chunk.Chunk.live_views () in
  let t0 = Clock.now_ns () in
  let c, st = build () in
  if traced then span_pass shm "par.build" ~pass t0;
  fun () ->
    let t1 = Clock.now_ns () in
    let p = timed (fun () -> Cluster.run c) in
    if traced then span_pass shm "par.run" ~pass t1;
    let p = with_guards (with_cluster_meters p c) (hub_kernels c) in
    let items_in, items_out = if traced then flow_totals c else (0, 0) in
    finish
      {
        p with
        items = n;
        filters = List.fold_left (fun a j -> a +. Shm.sum shm ~slot:(Shm.filter j)) 0. [ 1; 2; 3 ];
        credit_takes = int_of_float (Shm.sum shm ~slot:Shm.credit_takes);
        items_in;
        items_out;
        views_delta = Eden_chunk.Chunk.live_views () - views0;
      }
      st
