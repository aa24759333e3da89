(* Resilience: retry/backoff, supervision, and crash-resumable
   pipelines replaying from checkpoints under loss and crashes. *)

open Eden_kernel
module Sched = Eden_sched.Sched
module Net = Eden_net.Net
module Prng = Eden_util.Prng
module Pipeline = Eden_transput.Pipeline
module Transform = Eden_transput.Transform
module Pull = Eden_transput.Pull
module Backoff = Eden_resil.Backoff
module Retry = Eden_resil.Retry
module Resumable = Eden_transput.Resumable
module Supervisor = Eden_resil.Supervisor
module Flowctl = Eden_flowctl.Flowctl

let check = Alcotest.check
let value = Alcotest.testable Value.pp Value.equal

let prop name ?(count = 100) ?print gen f =
  Seed.to_alcotest (QCheck2.Test.make ~name ~count ?print gen f)

(* --- Backoff -------------------------------------------------------- *)

let prop_backoff_schedule =
  prop "backoff schedule deterministic, monotone, bounded"
    QCheck2.Gen.(
      pair
        (quad (float_range 0.01 5.0) (float_range 1.0 4.0) (float_range 1.0 50.0)
           (float_range 0.0 0.9))
        (pair nat (int_range 1 30)))
    (fun ((base, multiplier, capmul, jitter), (seed, n)) ->
      let cap = base *. capmul in
      let t = Backoff.make ~base ~multiplier ~cap ~jitter () in
      let seed = Int64.of_int seed in
      let s1 = Backoff.schedule t ~seed n in
      let s2 = Backoff.schedule t ~seed n in
      let monotone =
        List.for_all2 (fun a b -> a <= b)
          (List.filteri (fun i _ -> i < n - 1) s1)
          (List.tl s1)
        || n = 1
      in
      s1 = s2
      && monotone
      && List.for_all (fun d -> d > 0.0 && d <= cap +. 1e-9) s1)

let test_backoff_known_schedule () =
  (* Zero jitter gives the pure geometric series, capped. *)
  let t = Backoff.make ~base:1.0 ~multiplier:2.0 ~cap:5.0 ~jitter:0.0 () in
  check
    Alcotest.(list (float 1e-9))
    "geometric then capped" [ 1.0; 2.0; 4.0; 5.0; 5.0 ]
    (Backoff.schedule t ~seed:1L 5)

(* --- Retry ---------------------------------------------------------- *)

let test_retry_reaches_through_loss () =
  (* The echo Eject is remote: loss only applies to inter-node hops. *)
  let k = Kernel.create ~seed:11L ~nodes:[ "a"; "b" ] () in
  let nb = List.nth (Kernel.nodes k) 1 in
  let echo =
    Kernel.create_eject k ~node:nb ~type_name:"echo" (fun _ctx ~passive:_ ->
        [ ("Echo", Fun.id) ])
  in
  Net.set_loss_probability (Kernel.net k) 0.3;
  let meter = Retry.create_meter () in
  let got = ref 0 in
  Kernel.run_driver k (fun ctx ->
      let prng = Prng.create 42L in
      let policy = Retry.policy ~timeout:5.0 ~max_attempts:50 () in
      for i = 1 to 20 do
        match Retry.call ~policy ~meter ~prng ctx echo ~op:"Echo" (Value.Int i) with
        | Value.Int j when j = i -> incr got
        | _ -> ()
      done);
  check Alcotest.int "every call eventually succeeded" 20 !got;
  Alcotest.(check bool) "retries were needed under 30% loss" true (meter.Retry.retries > 0);
  check Alcotest.int "kernel timeout counter agrees" meter.Retry.timeouts (Kernel.timeouts k)

(* --- Resumable pipelines -------------------------------------------- *)

let gen n i = if i < n then Some (Value.Int i) else None

let specs =
  [
    Resumable.pure_map (fun v -> Value.Int (Value.to_int v + 1));
    Resumable.pure_filter (fun v -> Value.to_int v mod 3 <> 0);
    Resumable.pure_map (fun v -> Value.Int (Value.to_int v * 2));
  ]

let expected n =
  List.init n (fun i -> i + 1)
  |> List.filter (fun x -> x mod 3 <> 0)
  |> List.map (fun x -> Value.Int (x * 2))

(* One chaos run: build, optionally supervise, arm crashes, run to the
   deadline.  [crashes] picks (stage, time) pairs off the built
   pipeline. *)
let run_chaos ?(loss = 0.0) ?(crashes = fun _ -> []) ?(supervised = true) ?(n = 30)
    ?(batch = 2) ?flowctl ?(deadline = 5000.0) discipline =
  (* Stages are spread over three nodes so injected loss actually
     applies: same-node hops are exempt from the loss coin. *)
  let k = Kernel.create ~seed:5L ~nodes:[ "a"; "b"; "c" ] () in
  Net.set_loss_probability (Kernel.net k) loss;
  let policy =
    Retry.policy ~timeout:15.0 ~max_attempts:30
      ~backoff:(Backoff.make ~base:1.0 ~cap:10.0 ())
      ()
  in
  let p =
    Pipeline.resumable k ~nodes:(Kernel.nodes k) ~batch ?flowctl ~policy ~seed:99L discipline
      ~gen:(gen n) ~filters:specs
  in
  let sup = Supervisor.create k ~policy:(Supervisor.policy ~interval:4.0 ()) () in
  if supervised then begin
    Pipeline.supervise p sup;
    Supervisor.start sup
  end;
  List.iter (fun (uid, at) -> Pipeline.crash_at p uid at) (crashes p);
  let completed = ref false in
  Kernel.run_driver k (fun _ctx ->
      Pipeline.start p;
      completed := Pipeline.await_timeout p ~deadline;
      Supervisor.stop sup);
  (!completed, Pipeline.output p, p, sup)

let test_ro_fault_free () =
  let ok, out, _, _ = run_chaos Pipeline.Read_only in
  Alcotest.(check bool) "completes" true ok;
  check (Alcotest.option (Alcotest.list value)) "output" (Some (expected 30)) out

(* The issue's acceptance scenario: a read-only 3-filter pipeline with a
   filter crashed mid-stream under 10% loss completes, supervised, with
   output identical to the fault-free run. *)
let test_ro_crash_and_loss_output_identical () =
  let _, fault_free, _, _ = run_chaos Pipeline.Read_only in
  let crashes p = [ (List.assoc "filter-2" p.Pipeline.stages, 30.0) ] in
  let ok, out, _, sup = run_chaos ~loss:0.1 ~crashes Pipeline.Read_only in
  Alcotest.(check bool) "completes despite crash + loss" true ok;
  check (Alcotest.option (Alcotest.list value)) "output identical to fault-free" fault_free out;
  check (Alcotest.option (Alcotest.list value)) "and correct" (Some (expected 30)) out;
  ignore sup

(* A crashed read-only sink is a dead pump: nothing invokes it, so only
   the supervisor's poke can resume it — from its checkpointed fold
   state, not from scratch. *)
let test_supervisor_restarts_crashed_sink () =
  (* The fault-free run finishes around t=9 on a local node, so t=4 is
     genuinely mid-stream. *)
  let crashes p = [ (List.assoc "sink" p.Pipeline.stages, 4.0) ] in
  (* Unsupervised: stalls forever, and the stall is attributable. *)
  let ok, _, p, _ = run_chaos ~crashes ~supervised:false ~deadline:600.0 Pipeline.Read_only in
  Alcotest.(check bool) "unsupervised run stalls" false ok;
  (match Pipeline.diagnose p with
  | None -> Alcotest.fail "expected a stall diagnosis"
  | Some d ->
      Alcotest.(check bool) "some stage is blocked" true (d.Pipeline.stalls <> []));
  (* Supervised: restarted from the checkpoint, identical output. *)
  let ok, out, _, sup = run_chaos ~crashes Pipeline.Read_only in
  Alcotest.(check bool) "supervised run completes" true ok;
  check (Alcotest.option (Alcotest.list value)) "output equals fault-free" (Some (expected 30)) out;
  Alcotest.(check bool) "the supervisor actually restarted it" true (Supervisor.restarts sup >= 1)

let test_wo_crash_and_loss_output_identical () =
  (* Dual scenario: the write-only pump is the source. *)
  let crashes p =
    [
      (List.assoc "source" p.Pipeline.stages, 25.0);
      (List.assoc "filter-1" p.Pipeline.stages, 40.0);
    ]
  in
  let ok, out, _, sup = run_chaos ~loss:0.1 ~crashes Pipeline.Write_only in
  Alcotest.(check bool) "completes despite crashes + loss" true ok;
  check (Alcotest.option (Alcotest.list value)) "output correct" (Some (expected 30)) out;
  Alcotest.(check bool) "pump restarted by supervisor" true (Supervisor.restarts sup >= 1)

let test_conventional_crash_and_loss () =
  let crashes p =
    [
      (List.assoc "filter-2" p.Pipeline.stages, 25.0);
      (List.assoc "pipe-2" p.Pipeline.stages, 45.0);
    ]
  in
  let ok, out, _, _ = run_chaos ~loss:0.05 ~crashes Pipeline.Conventional in
  Alcotest.(check bool) "completes" true ok;
  check (Alcotest.option (Alcotest.list value)) "output correct" (Some (expected 30)) out

(* Duality survives the resilience layer: at batch 1 the read-only and
   write-only pipelines use the same number of invocations — all
   Transfers one way, all Deposits the other — and produce the same
   output. *)
let test_duality_with_resilience () =
  let n = 12 in
  let run d =
    let k = Kernel.create ~seed:7L () in
    let p = Pipeline.resumable k ~batch:1 ~seed:3L d ~gen:(gen n) ~filters:specs in
    Kernel.run_driver k (fun _ctx ->
        Pipeline.start p;
        Pipeline.await p);
    ((Kernel.Meter.snapshot k).Kernel.Meter.invocations, Kernel.op_counts k, Pipeline.output p)
  in
  let inv_ro, ops_ro, out_ro = run Pipeline.Read_only in
  let inv_wo, ops_wo, out_wo = run Pipeline.Write_only in
  check (Alcotest.option (Alcotest.list value)) "same output" out_ro out_wo;
  check Alcotest.int "mirrored invocation totals" inv_ro inv_wo;
  check Alcotest.int "Transfers one way = Deposits the other"
    (List.assoc "Transfer" ops_ro) (List.assoc "Deposit" ops_wo);
  Alcotest.(check bool) "read-only used no Deposits" true (not (List.mem_assoc "Deposit" ops_ro));
  Alcotest.(check bool) "write-only used no Transfers" true
    (not (List.mem_assoc "Transfer" ops_wo))

let test_supervisor_gives_up_on_crash_loop () =
  let k = Kernel.create ~seed:13L () in
  let p =
    Pipeline.resumable k ~batch:2 ~seed:21L Pipeline.Read_only ~gen:(gen 100) ~filters:specs
  in
  let sup =
    Supervisor.create k
      ~policy:(Supervisor.policy ~interval:1.0 ~max_restarts:2 ~window:1000.0 ())
      ()
  in
  Pipeline.supervise p sup;
  Supervisor.start sup;
  (* 100 items take ~30 virtual seconds fault-free; crash the sink every
     few seconds so the third restart request falls inside the window
     while the stream is far from done. *)
  let sink = List.assoc "sink" p.Pipeline.stages in
  List.iter (fun at -> Pipeline.crash_at p sink at) [ 2.0; 5.0; 8.0; 11.0 ];
  let completed = ref true in
  Kernel.run_driver k (fun _ctx ->
      Pipeline.start p;
      completed := Pipeline.await_timeout p ~deadline:200.0;
      Supervisor.stop sup);
  Alcotest.(check bool) "pipeline abandoned" false !completed;
  Alcotest.(check bool) "supervisor gave up on the sink" true
    (List.exists (fun (label, _) -> label = "sink") (Supervisor.gave_up sup));
  check Alcotest.int "restarts granted before giving up" 2 (Supervisor.restarts sup)

(* --- Batched chaos regression ---------------------------------------- *)

(* The R1 storm schedule (two filters and the sink crashed, staggered,
   under 10% loss) replayed over the flow-controlled pipeline:
   exactly-once must hold at every batch size, fixed or adaptive.
   Checkpoints sit at batch boundaries, so a bigger batch only coarsens
   replay granularity — never the output. *)
let storm p =
  [
    (List.assoc "filter-1" p.Pipeline.stages, 2.0);
    (List.assoc "sink" p.Pipeline.stages, 5.0);
    (List.assoc "filter-3" p.Pipeline.stages, 8.0);
  ]

let test_batched_chaos flowctl () =
  let ok, out, _, _ = run_chaos ~loss:0.1 ~crashes:storm ~flowctl Pipeline.Read_only in
  Alcotest.(check bool) "completes despite storm + loss" true ok;
  check
    (Alcotest.option (Alcotest.list value))
    "output exactly-once" (Some (expected 30)) out

(* The write-only dual with an adaptive batch: a restarted sink
   acknowledges short, which is exactly the controller's shrink signal —
   replay must stay exactly-once while the batch resizes mid-stream. *)
let test_batched_chaos_wo () =
  let crashes p =
    [
      (List.assoc "source" p.Pipeline.stages, 3.0);
      (List.assoc "filter-1" p.Pipeline.stages, 7.0);
    ]
  in
  let ok, out, _, _ =
    run_chaos ~loss:0.1 ~crashes ~flowctl:(Flowctl.adaptive ()) Pipeline.Write_only
  in
  Alcotest.(check bool) "completes" true ok;
  check
    (Alcotest.option (Alcotest.list value))
    "output exactly-once" (Some (expected 30)) out

(* --- Chaos refinement property ----------------------------------------- *)

(* A resumable pipeline is the plain one plus failure behaviour, so
   under any crash schedule a supervised run must still produce the
   fault-free run's stream.  Crash times are fractions of the
   fault-free makespan of the same configuration (the sink's final
   checkpoint), so they land mid-stream at every batch and loss. *)
let prop_chaos_refinement =
  let batch_name = function `Fixed n -> string_of_int n | `Adaptive -> "adaptive" in
  let print (d, batch, loss, crashes) =
    Printf.sprintf "%s batch=%s loss=%g crashes=[%s]" (Pipeline.discipline_name d)
      (batch_name batch) loss
      (String.concat "; " (List.map (fun (i, f) -> Printf.sprintf "stage %d at %.2f" i f) crashes))
  in
  prop "chaos refinement: supervised resumable = fault-free oracle" ~count:30 ~print
    QCheck2.Gen.(
      let* d = oneofl Pipeline.all_disciplines in
      let* batch = oneofl [ `Fixed 1; `Fixed 4; `Adaptive ] in
      let* loss = oneofl [ 0.0; 0.1 ] in
      let* crashes = list_size (int_range 1 3) (pair nat (float_range 0.02 0.98)) in
      return (d, batch, loss, crashes))
    (fun (d, batch, loss, crashes) ->
      let flowctl =
        match batch with `Fixed n -> Flowctl.fixed n | `Adaptive -> Flowctl.adaptive ()
      in
      let ok0, oracle, p0, _ = run_chaos ~loss ~flowctl d in
      let makespan =
        match Kernel.checkpoints p0.Pipeline.kernel p0.Pipeline.sink with
        | (at, _) :: _ -> at
        | [] -> QCheck2.Test.fail_report "fault-free run never checkpointed its sink"
      in
      let crashes p =
        List.map
          (fun (i, f) ->
            (snd (List.nth p.Pipeline.stages (i mod List.length p.Pipeline.stages)), f *. makespan))
          crashes
      in
      let ok, out, p, _ = run_chaos ~loss ~flowctl ~crashes d in
      if not (ok0 && oracle = Some (expected 30)) then
        QCheck2.Test.fail_report "fault-free oracle run failed";
      if not (List.exists (fun (_, u) -> Kernel.crash_count p.Pipeline.kernel u > 0) p.Pipeline.stages)
      then QCheck2.Test.fail_report "no crash landed";
      if not ok then QCheck2.Test.fail_report "chaos run did not complete";
      out = oracle)

(* --- Stall detector -------------------------------------------------- *)

let test_stall_detector_attributes_stage () =
  (* A partition between the stages stalls the plain pipeline (no
     retries there); the detector must attribute the blocked fibers to
     their stages. *)
  let k = Kernel.create ~nodes:[ "a"; "b" ] () in
  let nodes = Kernel.nodes k in
  let i = ref 0 in
  let p =
    Pipeline.build k ~nodes Pipeline.Read_only
      ~gen:(fun () ->
        incr i;
        if !i <= 50 then Some (Value.Int !i) else None)
      ~filters:[ Transform.identity ]
      ~consume:ignore
  in
  Net.partition (Kernel.net k) (List.nth nodes 0) (List.nth nodes 1);
  Pipeline.start p;
  Sched.run (Kernel.sched k);
  match Pipeline.diagnose p with
  | None -> Alcotest.fail "pipeline should not have completed"
  | Some d ->
      Alcotest.(check bool) "diagnosis is non-empty" true (d.Pipeline.stalls <> []);
      Alcotest.(check bool) "the waiting sink is attributed to its stage" true
        (List.exists
           (fun s -> s.Pipeline.stage = Some "sink")
           d.Pipeline.stalls)

(* --- Interop -------------------------------------------------------- *)

let test_legacy_pull_reads_resumable_source () =
  (* Un-stamped Transfers fall back to cursor serving, so a plain Pull
     consumer drains a resumable source exactly like a plain Port. *)
  let k = Kernel.create () in
  let src = Resumable.source_ro k (gen 5) in
  let got = ref [] in
  Kernel.run_driver k (fun ctx ->
      let pull = Pull.connect ctx src in
      Pull.iter (fun v -> got := v :: !got) pull);
  check (Alcotest.list value) "items in order" (List.init 5 (fun i -> Value.Int i))
    (List.rev !got)

let suite =
  [
    prop_backoff_schedule;
    ("backoff known schedule", `Quick, test_backoff_known_schedule);
    ("retry reaches through loss", `Quick, test_retry_reaches_through_loss);
    ("resumable read-only, fault-free", `Quick, test_ro_fault_free);
    ("RO: crash + 10% loss, output identical", `Quick, test_ro_crash_and_loss_output_identical);
    ("supervisor restarts crashed sink", `Quick, test_supervisor_restarts_crashed_sink);
    ("WO: crashed pump + loss, output identical", `Quick, test_wo_crash_and_loss_output_identical);
    ("conventional: crash + loss", `Quick, test_conventional_crash_and_loss);
    ("duality with resilience enabled", `Quick, test_duality_with_resilience);
    ("supervisor gives up on crash loop", `Quick, test_supervisor_gives_up_on_crash_loop);
    ("storm chaos, batch=1", `Quick, test_batched_chaos (Flowctl.fixed 1));
    ("storm chaos, batch=4", `Quick, test_batched_chaos (Flowctl.fixed 4));
    ("storm chaos, batch=8", `Quick, test_batched_chaos (Flowctl.fixed 8));
    ("storm chaos, batch=64", `Quick, test_batched_chaos (Flowctl.fixed 64));
    ("storm chaos, adaptive batch", `Quick, test_batched_chaos (Flowctl.adaptive ()));
    ("WO chaos, adaptive batch", `Quick, test_batched_chaos_wo);
    prop_chaos_refinement;
    ("stall detector attributes stage", `Quick, test_stall_detector_attributes_stage);
    ("legacy pull reads resumable source", `Quick, test_legacy_pull_reads_resumable_source);
  ]
