(* Elastic stage: autoscaling replicas with exactly-once drain/handoff
   under crashes.  Unit tests over fixed and elastic fleets, the
   schedule-exploration suite over scale/crash/replay interleavings, the
   drain-skips-checkpoint calibration mutant, and the QCheck clamp
   property for the fleet controller. *)

module Check = Eden_check.Check
module Policy = Eden_check.Policy
module Sched = Eden_sched.Sched
module Kernel = Eden_kernel.Kernel
module Value = Eden_kernel.Value
module Prng = Eden_util.Prng
module Pipeline = Eden_transput.Pipeline
module Aimd = Eden_flowctl.Aimd
module Push = Eden_transput.Push
module Retry = Eden_resil.Retry
module Supervisor = Eden_resil.Supervisor
module Elastic = Eden_elastic.Elastic

let check = Alcotest.check
let value = Alcotest.testable Value.pp Value.equal
let replay_dir = "_check"

(* The workload: partitioned running sums.  [classify] keys items by
   value mod nchan; the per-channel state is the sum so far, and each
   item emits it — any lost, duplicated or reordered item shifts every
   later output of its channel, so exactly-once violations are visible
   in the output, not only in the stamps. *)

let nchan = 3
let classify v = Value.to_int v mod nchan

let spec =
  {
    Elastic.init = Value.Int 0;
    step =
      (fun st v ->
        let s = Value.to_int st + Value.to_int v in
        (Value.Int s, [ Value.Int s ]));
  }

let expected_outputs n =
  let sums = Array.make nchan 0 in
  let outs = Array.make nchan [] in
  for i = 0 to n - 1 do
    let c = i mod nchan in
    sums.(c) <- sums.(c) + i;
    outs.(c) <- Value.Int sums.(c) :: outs.(c)
  done;
  List.init nchan (fun c -> (c, List.rev outs.(c)))
  |> List.filter (fun (_, l) -> l <> [])

let fixed_ctrl n =
  Aimd.params ~min_batch:n ~max_batch:n ~increase:1 ~decrease:0.5 ~low_watermark:0.25
    ~high_watermark:0.75 ()

let elastic_ctrl ?(lo = 0) ?(hi = 6) () =
  Aimd.params ~min_batch:lo ~max_batch:hi ~increase:1 ~decrease:0.5 ~low_watermark:0.2
    ~high_watermark:0.6 ()

(* One producer link per run: EOS (carried by [Push.close]) finalizes
   the stage, so multi-phase tests must keep a single push open across
   every phase and close it exactly once. *)
let connect ctx e = Push.connect ctx ~batch:1 ~retry:(Retry.client 77L) (Elastic.router e)

let send push i =
  Push.write push (Value.Int i);
  Push.flush push

let feed ctx e items =
  let push = connect ctx e in
  List.iter (fun v -> Push.write push v; Push.flush push) items;
  Push.close push

let check_exact ?(n = 12) e =
  check
    (Alcotest.list (Alcotest.pair Alcotest.int (Alcotest.list value)))
    "outputs exactly-once, per-channel order" (expected_outputs n) (Elastic.outputs e);
  check (Alcotest.list Alcotest.string) "no violations" [] (Elastic.violations e)

(* --- Unit: fixed fleets ----------------------------------------------- *)

let test_fixed_fleet_exact () =
  let n = 12 in
  let k = Kernel.create ~seed:3L () in
  let e =
    Elastic.create k ~classify ~spec
      (Elastic.params ~tick:1.0 ~checkpoint_every:2 ~auto:false ~ctrl:(fixed_ctrl 4) ())
  in
  Elastic.start e;
  Kernel.run_driver k (fun ctx ->
      feed ctx e (List.init n (fun i -> Value.Int i));
      Elastic.await e);
  check Alcotest.int "four replicas" 4 (Elastic.live_replicas e);
  check Alcotest.int "channels spread over the fleet" nchan
    (List.length (Elastic.assignments e));
  check_exact ~n e

let test_single_replica_is_plain_stage () =
  let n = 9 in
  let k = Kernel.create ~seed:4L () in
  let e =
    Elastic.create k ~classify ~spec
      (Elastic.params ~tick:1.0 ~auto:false ~ctrl:(fixed_ctrl 1) ())
  in
  Elastic.start e;
  Kernel.run_driver k (fun ctx ->
      feed ctx e (List.init n (fun i -> Value.Int i));
      Elastic.await e);
  check Alcotest.int "one replica only, ever" 1 (Elastic.replicas_spawned e);
  check_exact ~n e

(* --- Unit: scaling ---------------------------------------------------- *)

(* Like [spec] but each item costs [cost] virtual time at the replica —
   the stage is a real bottleneck, so bursts queue and the controller
   has something to react to.  (With the router acknowledging on
   acceptance, a zero-cost stage absorbs any rate at width 1.) *)
let slow_spec cost =
  {
    Elastic.init = Value.Int 0;
    step =
      (fun st v ->
        Sched.sleep cost;
        let s = Value.to_int st + Value.to_int v in
        (Value.Int s, [ Value.Int s ]));
  }

let test_burst_scales_up_idle_scales_to_zero () =
  let n = 30 in
  let k = Kernel.create ~seed:5L () in
  let e =
    Elastic.create k ~classify ~spec:(slow_spec 1.0)
      (Elastic.params ~tick:1.0 ~capacity_per_replica:2 ~ctrl:(elastic_ctrl ()) ())
  in
  Elastic.start e;
  let live_after_idle = ref (-1) in
  Kernel.run_driver k (fun ctx ->
      (* Scale-from-zero: the fleet starts at the floor (0) and work is
         parked until the controller reacts. *)
      check Alcotest.int "starts at the floor" 0 (Elastic.live_replicas e);
      (* Open-loop burst: buffered writes land as a few large deposits,
         far faster than one 1.0-cost replica can absorb them. *)
      let push =
        Push.connect ctx ~batch:10 ~retry:(Retry.client 77L) (Elastic.router e)
      in
      for i = 0 to n - 1 do
        Push.write push (Value.Int i)
      done;
      Push.flush push;
      (* A long idle tail after the burst, with the stream still open:
         occupancy sits at 0, so the halving side must walk the fleet
         back to the floor before EOS arrives. *)
      Sched.sleep 200.0;
      live_after_idle := Elastic.live_replicas e;
      Push.close push;
      Elastic.await e);
  Alcotest.(check bool)
    (Printf.sprintf "burst widened the fleet (max_live %d)" (Elastic.max_live e))
    true
    (Elastic.max_live e >= 2);
  check Alcotest.int "idle drained it to zero" 0 !live_after_idle;
  check_exact ~n e

let test_scale_down_drains_exactly_once () =
  let n = 18 in
  let k = Kernel.create ~seed:6L () in
  let e =
    Elastic.create k ~classify ~spec
      (Elastic.params ~tick:1.0 ~checkpoint_every:3 ~auto:false ~ctrl:(fixed_ctrl 4) ())
  in
  Elastic.start e;
  Kernel.run_driver k (fun ctx ->
      let push = connect ctx e in
      for i = 0 to 8 do
        send push i
      done;
      (* Mid-stream voluntary drains: 4 -> 2 replicas, handing channels
         (with non-checkpoint-aligned windows) to survivors. *)
      Elastic.scale_to ctx e 2;
      check Alcotest.int "two live after drain" 2 (Elastic.live_replicas e);
      for i = 9 to 17 do
        send push i
      done;
      Push.close push;
      Elastic.await e);
  check_exact ~n e

(* --- Unit: crashes ---------------------------------------------------- *)

let test_replica_crash_replays_exactly_once () =
  let n = 18 in
  let k = Kernel.create ~seed:7L () in
  let e =
    Elastic.create k ~classify ~spec
      (Elastic.params ~tick:1.0 ~checkpoint_every:3 ~auto:false ~ctrl:(fixed_ctrl 2) ())
  in
  Elastic.start e;
  Kernel.run_driver k (fun ctx ->
      let push = connect ctx e in
      for i = 0 to 9 do
        send push i
      done;
      (* Crash both replicas with un-checkpointed windows in flight; the
         next manager sweep must rewind and replay from durable. *)
      List.iter (fun (_, uid) -> Kernel.crash k uid) (Elastic.replica_uids e);
      for i = 10 to 17 do
        send push i
      done;
      Push.close push;
      Elastic.await e);
  check_exact ~n e

let test_replay_storm_is_deduplicated () =
  let n = 12 in
  let k = Kernel.create ~seed:8L () in
  let e =
    Elastic.create k ~classify ~spec
      (Elastic.params ~tick:1.0 ~checkpoint_every:4 ~auto:false ~ctrl:(fixed_ctrl 3) ())
  in
  Elastic.start e;
  Kernel.run_driver k (fun ctx ->
      let push = connect ctx e in
      for i = 0 to 5 do
        send push i
      done;
      (* Rewind every link to its durable base and retransmit: pure
         duplicate delivery the seq turnstiles must absorb. *)
      Elastic.replay_all ctx e;
      for i = 6 to n - 1 do
        send push i
      done;
      Elastic.replay_all ctx e;
      Push.close push;
      Elastic.await e);
  check_exact ~n e

let test_supervised_crash_loop_becomes_adoption () =
  let n = 18 in
  let k = Kernel.create ~seed:9L () in
  let e =
    Elastic.create k ~classify ~spec
      ~supervise:(Supervisor.policy ~interval:1.0 ~max_restarts:1 ~window:1000.0 ())
      (Elastic.params ~tick:1.0 ~checkpoint_every:3 ~auto:false ~ctrl:(fixed_ctrl 2) ())
  in
  Elastic.start e;
  let victim = ref None in
  Kernel.run_driver k (fun ctx ->
      let push = connect ctx e in
      for i = 0 to 8 do
        send push i
      done;
      (* Crash one replica repeatedly until its supervisor exhausts the
         restart budget; the give-up must surface as an involuntary
         drain (adoption), not a wedge. *)
      (match Elastic.replica_uids e with
      | (_, uid) :: _ ->
          victim := Some uid;
          for _ = 1 to 4 do
            Kernel.crash k uid;
            Sched.sleep 5.0
          done
      | [] -> Alcotest.fail "no replicas");
      for i = 9 to 17 do
        send push i
      done;
      Push.close push;
      Elastic.await e);
  let sup = Option.get (Elastic.supervisor e) in
  Alcotest.(check bool) "supervisor gave up on the victim" true
    (Supervisor.give_ups sup >= 1);
  Alcotest.(check bool) "victim no longer in the fleet" true
    (match !victim with
    | Some u -> not (List.exists (fun (_, u') -> Eden_kernel.Uid.equal u u') (Elastic.replica_uids e))
    | None -> false);
  check_exact ~n e

(* --- Unit: stall detector vs quiesced stages (satellite) -------------- *)

let test_stall_detector_ignores_quiesced () =
  (* A fiber blocked on behalf of a quiesced Eject is policy, not a
     hang; the detector must skip it unless asked for everything. *)
  let k = Kernel.create ~seed:10L () in
  let uid =
    Kernel.create_eject k ~type_name:"parked" (fun ctx ~passive:_ ->
        Kernel.spawn_worker ctx (fun () -> Sched.sleep 1e9);
        [ ("Ping", fun _ -> Value.Unit) ])
  in
  Kernel.poke k uid;
  let sched = Kernel.sched k in
  ignore (Sched.spawn sched (fun () -> Sched.sleep 0.1));
  (try Sched.run sched with _ -> ());
  let stages = [ ("parked", uid) ] in
  let before = Pipeline.stall_report k ~stages in
  Alcotest.(check bool) "reported while live" true
    (List.exists (fun s -> s.Pipeline.stage = Some "parked") before);
  Kernel.set_quiesced k uid true;
  check Alcotest.int "quiesced stage exempted" 0
    (List.length (Pipeline.stall_report k ~stages));
  Alcotest.(check bool) "still visible on demand" true
    (List.exists
       (fun s -> s.Pipeline.stage = Some "parked")
       (Pipeline.stall_report ~include_quiesced:true k ~stages));
  Kernel.crash k uid;
  Alcotest.(check bool) "crash clears the exemption" false (Kernel.is_quiesced k uid)

(* --- Exploration ------------------------------------------------------ *)

(* One decide-driven elastic run: the schedule chooses a voluntary
   drain point, a crash point (either can land inside the other's
   window — crash-during-drain included) and a replay-storm point, all
   in item-index units.  Pick 0 = no event, so FIFO is the fault-free
   baseline.  Asserts: zero violations, outputs exactly the partitioned
   running sums, completion. *)
let elastic_prop ?defect ?(n = 12) ctl =
  let k = Kernel.create ~seed:2L () in
  Check.attach ctl (Kernel.sched k);
  let e =
    Elastic.create k ?defect ~classify ~spec
      (Elastic.params ~tick:1.0 ~checkpoint_every:3 ~auto:false ~ctrl:(fixed_ctrl 2) ())
  in
  (* Decision order matters for DFS, which varies the deepest recorded
     pick first: the drain point — the decision the calibration mutant
     hinges on — is decided last so bounded DFS reaches it early. *)
  let crash_at = Check.decide ctl ~kind:"elastic.crash_at" ~n:(n + 1) in
  let replay_at = Check.decide ctl ~kind:"elastic.replay_at" ~n:(n + 1) in
  let drain_at = Check.decide ctl ~kind:"elastic.drain_at" ~n:(n + 1) in
  Elastic.start e;
  let completed = ref false in
  Kernel.run_driver k (fun ctx ->
      let push =
        Push.connect ctx ~batch:1 ~retry:(Retry.client 77L) (Elastic.router e)
      in
      List.iteri
        (fun i v ->
          if i + 1 = crash_at then begin
            (match Elastic.replica_uids e with
            | (_, uid) :: _ -> Kernel.crash k uid
            | [] -> ());
            Sched.note (Kernel.sched k) ~kind:"elastic.crash" ~arg:i
          end;
          if i + 1 = drain_at then ignore (Elastic.drain_one ctx e);
          if i + 1 = replay_at then Elastic.replay_all ctx e;
          Push.write push v;
          Push.flush push)
        (List.init n (fun i -> Value.Int i));
      Push.close push;
      completed := Elastic.await_timeout e ~timeout:3000.0;
      Elastic.stop e);
  Sched.check_failures (Kernel.sched k);
  if not !completed then failwith "elastic run wedged";
  (match Elastic.violations e with
  | [] -> ()
  | v :: _ -> failwith ("violation: " ^ v));
  if Elastic.outputs e <> expected_outputs n then failwith "outputs diverged"

let test_exploration_real_impl policy () =
  ignore
    (Check.run_or_fail ~budget:40 ~policy ~seed:Seed.base ~replay_dir
       ~name:("elastic-" ^ Policy.to_string policy)
       (elastic_prop ?defect:None))

(* Calibration mutant: a drain that skips the final checkpoint.  The
   lying Sync acknowledgement makes the router release an in-flight
   window that was never durable, so the handoff resumes the channel
   from a stale checkpoint.  FIFO never drains (pick 0), so it hides;
   any schedule draining off a checkpoint boundary exposes it. *)
let test_mutant_hides_under_fifo () =
  Alcotest.(check bool) "real impl passes FIFO" true
    (Check.fifo_passes (elastic_prop ?defect:None));
  Alcotest.(check bool) "mutant benign under FIFO" true
    (Check.fifo_passes (elastic_prop ~defect:Elastic.Drain_skips_checkpoint))

(* DFS bounds are a per-prop knob: with the router forwarding in
   parallel worker fibers, an elastic trace records dozens of genuine
   scheduler picks after the three fault decides, and deepest-first
   DFS with a 24-step window would burn any budget inside that binary
   subtree before ever incrementing a decide.  Fit the window to the
   decide prefix (3 picks, 13-way) so DFS enumerates fault points; the
   scheduler tail runs FIFO.  Random and PCT need no tuning — they
   reach the decides by construction. *)
let tune_for_decides = function
  | Policy.Dfs _ -> Policy.Dfs { max_branch = 13; max_steps = 3 }
  | p -> p

let test_mutant_found policy () =
  let policy = tune_for_decides policy in
  let f =
    Check.find_bug ~budget:32 ~policy ~seed:Seed.base ~replay_dir
      ~name:("elastic-mutant-" ^ Policy.to_string policy)
      (elastic_prop ~defect:Elastic.Drain_skips_checkpoint)
  in
  Alcotest.(check bool) "caught within 32 schedules" true (f.Check.schedules <= 32);
  match f.Check.replay_path with
  | None -> Alcotest.fail "no replay file written"
  | Some path ->
      let r = Check.replay ~path (elastic_prop ~defect:Elastic.Drain_skips_checkpoint) in
      Alcotest.(check bool) "replay reproduces" true r.Check.reproduced;
      let ok = Check.replay ~path (elastic_prop ?defect:None) in
      Alcotest.(check bool) "correct impl survives the same schedule" true
        (not ok.Check.reproduced)

(* --- QCheck: controller clamps ---------------------------------------- *)

(* Under arbitrary bursty traces the fleet must stay inside the
   controller's clamp bounds at every instant, and still deliver
   exactly-once. *)
let prop_fleet_within_clamps =
  Seed.to_alcotest
    (QCheck2.Test.make ~name:"fleet stays within controller clamps" ~count:12
       QCheck2.Gen.(
         pair (int_range 1 5) (small_list (pair (int_range 0 8) (int_range 0 3))))
       (fun (hi, bursts) ->
         let k = Kernel.create ~seed:21L () in
         let e =
           Elastic.create k ~classify ~spec
             (Elastic.params ~tick:1.0 ~capacity_per_replica:2
                ~ctrl:(elastic_ctrl ~lo:0 ~hi ()) ())
         in
         Elastic.start e;
         let total = ref 0 in
         let ok = ref true in
         Kernel.run_driver k (fun ctx ->
             let push =
               Push.connect ctx ~batch:1 ~retry:(Retry.client 5L) (Elastic.router e)
             in
             List.iter
               (fun (burst, idle) ->
                 for _ = 1 to burst do
                   Push.write push (Value.Int !total);
                   incr total
                 done;
                 Push.flush push;
                 if Elastic.live_replicas e > hi then ok := false;
                 Sched.sleep (float_of_int idle *. 3.0))
               bursts;
             Push.close push;
             ignore (Elastic.await_timeout e ~timeout:3000.0);
             Elastic.stop e);
         !ok && Elastic.max_live e <= hi
         && Elastic.violations e = []
         && Elastic.outputs e = expected_outputs !total))

(* --- Suite ------------------------------------------------------------ *)

let exploration_tests =
  List.map
    (fun policy ->
      ( "exploration: real impl clean under " ^ Policy.to_string policy,
        `Quick,
        test_exploration_real_impl policy ))
    Policy.quick_matrix

let mutant_tests =
  List.map
    (fun policy ->
      ( "mutant drain-skips-checkpoint caught by " ^ Policy.to_string policy,
        `Quick,
        test_mutant_found policy ))
    Policy.quick_matrix

let suite =
  [
    ("fixed fleet: partitioned sums exactly-once", `Quick, test_fixed_fleet_exact);
    ("single replica behaves as a plain stage", `Quick, test_single_replica_is_plain_stage);
    ("burst scales up, idle scales to zero", `Quick, test_burst_scales_up_idle_scales_to_zero);
    ("voluntary drain mid-stream is exactly-once", `Quick, test_scale_down_drains_exactly_once);
    ("replica crashes replay exactly-once", `Quick, test_replica_crash_replays_exactly_once);
    ("replay storms deduplicate", `Quick, test_replay_storm_is_deduplicated);
    ("crash loop gives up into adoption", `Quick, test_supervised_crash_loop_becomes_adoption);
    ("stall detector exempts quiesced stages", `Quick, test_stall_detector_ignores_quiesced);
    ("mutant hides under FIFO", `Quick, test_mutant_hides_under_fifo);
    prop_fleet_within_clamps;
  ]
  @ exploration_tests @ mutant_tests
