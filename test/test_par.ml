(* Parallel runtime: cross-domain primitives under real Domain.spawn
   contention, the cluster's proxy/termination machinery in both modes,
   and the parallel-vs-deterministic equivalence contract. *)

open Eden_par
module Kernel = Eden_kernel.Kernel
module Value = Eden_kernel.Value
module Uid = Eden_kernel.Uid
module Flowctl = Eden_flowctl.Flowctl
module Credit = Eden_flowctl.Credit

let prop name ?(count = 15) gen f =
  Seed.to_alcotest (QCheck2.Test.make ~name ~count gen f)

(* --- Dqueue ---------------------------------------------------------- *)

let test_dqueue_fifo () =
  let q = Dqueue.create () in
  for i = 0 to 9 do
    Alcotest.(check bool) "push accepted" true (Dqueue.push q i)
  done;
  Alcotest.(check int) "length" 10 (Dqueue.length q);
  for i = 0 to 9 do
    Alcotest.(check (option int)) "fifo" (Some i) (Dqueue.try_pop q)
  done;
  Alcotest.(check (option int)) "empty" None (Dqueue.try_pop q)

let test_dqueue_close () =
  let q = Dqueue.create () in
  ignore (Dqueue.push q 1);
  ignore (Dqueue.push q 2);
  Dqueue.close q;
  Dqueue.close q (* idempotent *);
  Alcotest.(check bool) "closed" true (Dqueue.is_closed q);
  Alcotest.(check bool) "push refused" false (Dqueue.push q 3);
  Alcotest.(check (option int)) "backlog drains" (Some 1) (Dqueue.pop q);
  Alcotest.(check (option int)) "backlog drains" (Some 2) (Dqueue.pop q);
  Alcotest.(check (option int)) "then None" None (Dqueue.pop q)

(* Readers blocked in [pop] must be released by [close], not hang. *)
let test_dqueue_close_wakes_reader () =
  let q = Dqueue.create () in
  let readers =
    List.init 2 (fun _ -> Domain.spawn (fun () -> Dqueue.pop q))
  in
  for _ = 1 to 10_000 do
    Domain.cpu_relax ()
  done;
  Dqueue.close q;
  List.iter
    (fun d -> Alcotest.(check (option int)) "released with None" None (Domain.join d))
    readers

(* The multiset of consumed items equals the multiset produced, and
   within any single consumer each producer's items appear in order. *)
let check_stress ~producers ~per_producer got =
  let all = List.concat got in
  let expected =
    List.concat_map
      (fun p -> List.init per_producer (fun i -> (p, i)))
      (List.init producers Fun.id)
  in
  List.sort compare all = expected
  && List.for_all
       (fun one_consumer ->
         List.for_all
           (fun p ->
             let mine = List.filter (fun (p', _) -> p' = p) one_consumer in
             let sorted = List.sort compare mine in
             mine = sorted)
           (List.init producers Fun.id))
       got

let prop_dqueue_stress =
  prop "dqueue: no loss/duplication under domain contention"
    QCheck2.Gen.(tup3 (int_range 1 3) (int_range 1 3) (int_range 0 50))
    (fun (producers, consumers, per_producer) ->
      let q = Dqueue.create () in
      let prods =
        List.init producers (fun p ->
            Domain.spawn (fun () ->
                for i = 0 to per_producer - 1 do
                  ignore (Dqueue.push q (p, i))
                done))
      in
      let cons =
        List.init consumers (fun _ ->
            Domain.spawn (fun () ->
                let rec loop acc =
                  match Dqueue.pop q with
                  | Some x -> loop (x :: acc)
                  | None -> List.rev acc
                in
                loop []))
      in
      List.iter Domain.join prods;
      Dqueue.close q;
      let got = List.map Domain.join cons in
      check_stress ~producers ~per_producer got)

(* --- Cluster --------------------------------------------------------- *)

let echo_cluster mode =
  let c = Cluster.create mode ~shards:2 () in
  let k1 = Cluster.kernel c 1 in
  let echo =
    Kernel.create_eject k1 ~type_name:"echo" (fun _ctx ~passive:_ ->
        [
          ("echo", fun v -> v);
          ("fail", fun _ -> raise (Kernel.Eden_error "boom"));
        ])
  in
  let p = Cluster.proxy c ~shard:0 ~ops:[ "echo"; "fail" ] ~target:(1, echo) in
  (c, p)

let test_cluster_echo mode () =
  let c, p = echo_cluster mode in
  let got = ref None in
  Cluster.driver c 0 (fun ctx ->
      got := Some (Kernel.invoke ctx p ~op:"echo" (Value.Int 42)));
  Cluster.run c;
  (match !got with
  | Some (Ok (Value.Int 42)) -> ()
  | _ -> Alcotest.fail "echo did not round-trip");
  let m = Cluster.meter c in
  Alcotest.(check int) "one invocation per side" 2 m.Kernel.Meter.invocations;
  Alcotest.(check int) "request + reply crossed" 2 (Cluster.cross_messages c);
  Alcotest.(check (list (pair string int)))
    "op_counts sum both sides"
    [ ("echo", 2) ]
    (Cluster.op_counts c)

let test_cluster_error mode () =
  let c, p = echo_cluster mode in
  let got = ref None in
  Cluster.driver c 0 (fun ctx ->
      got := Some (Kernel.invoke ctx p ~op:"fail" Value.Unit));
  Cluster.run c;
  match !got with
  | Some (Error "boom") -> ()
  | _ -> Alcotest.fail "Eden_error did not propagate through the proxy"

let test_cluster_fast_path () =
  let c = Cluster.create Deterministic ~shards:2 () in
  let k1 = Cluster.kernel c 1 in
  let echo =
    Kernel.create_eject k1 ~type_name:"echo" (fun _ctx ~passive:_ ->
        [ ("echo", fun v -> v) ])
  in
  let p = Cluster.proxy c ~shard:1 ~ops:[ "echo" ] ~target:(1, echo) in
  Alcotest.(check bool) "same-shard proxy is the target itself" true (p = echo);
  let got = ref None in
  Cluster.driver c 1 (fun ctx ->
      got := Some (Kernel.invoke ctx p ~op:"echo" (Value.Int 7)));
  Cluster.run c;
  (match !got with
  | Some (Ok (Value.Int 7)) -> ()
  | _ -> Alcotest.fail "local invoke failed");
  Alcotest.(check int) "nothing crossed a domain" 0 (Cluster.cross_messages c)

let test_cluster_run_once () =
  let c = Cluster.create Deterministic ~shards:1 () in
  Cluster.run c;
  Alcotest.check_raises "second run refused"
    (Invalid_argument "Cluster.run: already run") (fun () -> Cluster.run c)

(* A proxy that names a shard the cluster does not have is refused at
   the call, in every mode, before anything runs.  Accepted, the first
   call through it would count a message in flight that can never land,
   and a Deterministic [run] would spin forever. *)
let test_proxy_out_of_range () =
  let wire =
    Cluster.Wire
      {
        Cluster.wire_transport = Eden_wire.Transport.Unix_socket;
        wire_faults = None;
        wire_auth = None;
      }
  in
  List.iter
    (fun mode ->
      let c = Cluster.create mode ~shards:3 () in
      let echo =
        Kernel.create_eject (Cluster.kernel c 1) ~type_name:"echo" (fun _ctx ~passive:_ ->
            [ ("echo", fun v -> v) ])
      in
      List.iter
        (fun (shard, tshard, msg) ->
          Alcotest.check_raises msg (Invalid_argument ("Cluster.proxy: " ^ msg)) (fun () ->
              ignore (Cluster.proxy c ~shard ~ops:[ "echo" ] ~target:(tshard, echo))))
        [
          (0, 7, "target shard 7 outside [0, 3)");
          (0, -1, "target shard -1 outside [0, 3)");
          (3, 1, "shard 3 outside [0, 3)");
          (-1, 1, "shard -1 outside [0, 3)");
        ])
    [ Cluster.Deterministic; Cluster.Parallel; wire ]

(* --- Fan-in workload: smoke + equivalence ---------------------------- *)

let small_spec = { Topo.default with branches = 4; items = 30; batch = 3; work = 50 }
let fanin mode ?(domains = 3) spec = Topo.run mode ~domains (Topo.fanin ~domains spec)

let test_parallel_smoke () =
  let o = fanin Parallel small_spec in
  Alcotest.(check int) "all items consumed" (4 * 30) (Topo.consumed o);
  Alcotest.(check bool) "EOS last on every channel" true o.eos_clean;
  Alcotest.(check bool) "traffic crossed domains" true (o.cross_messages > 0)

let test_parallel_single_domain () =
  let o = fanin Parallel ~domains:1 small_spec in
  Alcotest.(check int) "all items consumed" (4 * 30) (Topo.consumed o);
  Alcotest.(check int) "no cross-domain traffic" 0 o.cross_messages

(* Per-branch item sequences: each sink's Bin-encoded byte stream. *)
let check_branches (det : Topo.outcome) (par : Topo.outcome) =
  List.iter2
    (fun (b, d) (_, p) -> Alcotest.(check string) (b ^ " item sequence") d p)
    det.sinks par.sinks

(* Satellite 2: a parallel run must agree with the deterministic oracle
   on everything schedule-independent — items in/out per stage, item
   order per branch, EOS placement, operation and invocation totals.
   Timing artifacts (occupancy, stalls, makespans) are exempt. *)
let test_equivalence () =
  let det = fanin Deterministic small_spec in
  let par = fanin Parallel small_spec in
  Alcotest.(check int) "consumed" (Topo.consumed det) (Topo.consumed par);
  Alcotest.(check bool) "det EOS clean" true det.eos_clean;
  Alcotest.(check bool) "par EOS clean" true par.eos_clean;
  check_branches det par;
  Alcotest.(check (list (pair string int)))
    "op counts (Transfer/Deposit)" det.op_counts par.op_counts;
  Alcotest.(check int) "total invocations"
    det.meter.Kernel.Meter.invocations
    par.meter.Kernel.Meter.invocations;
  Alcotest.(check int) "total replies"
    det.meter.Kernel.Meter.replies par.meter.Kernel.Meter.replies;
  Alcotest.(check int) "cross-domain messages" det.cross_messages par.cross_messages;
  let show_flows = List.map (fun (l, i, o) -> Printf.sprintf "%s:%d:%d" l i o) in
  Alcotest.(check (list string))
    "per-stage items in/out"
    (show_flows det.flows)
    (show_flows par.flows)

(* A fixed windowed configuration keeps the full parallel-vs-
   deterministic contract: credits are just pipelined exchanges, and a
   fixed batch makes their count schedule-independent. *)
let test_equivalence_windowed () =
  let spec = { small_spec with flowctl = Some (Flowctl.fixed ~credit:(Credit.Window 4) 3) } in
  let det = fanin Deterministic spec in
  let par = fanin Parallel spec in
  Alcotest.(check int) "consumed" (Topo.consumed det) (Topo.consumed par);
  Alcotest.(check int) "everything arrived" (4 * 30) (Topo.consumed par);
  Alcotest.(check bool) "det EOS clean" true det.eos_clean;
  Alcotest.(check bool) "par EOS clean" true par.eos_clean;
  check_branches det par;
  Alcotest.(check (list (pair string int))) "op counts" det.op_counts par.op_counts;
  Alcotest.(check int) "total invocations"
    det.meter.Kernel.Meter.invocations par.meter.Kernel.Meter.invocations

let same (a : Topo.outcome) (b : Topo.outcome) =
  a.sinks = b.sinks
  && a.op_counts = b.op_counts
  && a.cross_messages = b.cross_messages
  && a.makespans = b.makespans

(* Adaptive trajectories react to occupancy and are therefore
   scheduling-dependent; the contract they keep is within the
   deterministic mode, where the whole run is a pure function of the
   spec. *)
let test_adaptive_det_repeatable () =
  let spec = { small_spec with flowctl = Some (Flowctl.adaptive ~credit:(Credit.Window 4) ()) } in
  let a = fanin Deterministic spec in
  let b = fanin Deterministic spec in
  Alcotest.(check int) "everything arrived" (4 * 30) (Topo.consumed a);
  Alcotest.(check bool) "EOS clean" true a.eos_clean;
  Alcotest.(check bool) "identical outcomes" true (same a b)

let test_det_repeatable () =
  Alcotest.(check bool) "identical outcomes" true
    (same (fanin Deterministic small_spec) (fanin Deterministic small_spec))

let suite =
  [
    ("dqueue fifo", `Quick, test_dqueue_fifo);
    ("dqueue close", `Quick, test_dqueue_close);
    ("dqueue close wakes blocked readers", `Quick, test_dqueue_close_wakes_reader);
    prop_dqueue_stress;
    ("cluster echo (deterministic)", `Quick, test_cluster_echo Cluster.Deterministic);
    ("cluster echo (parallel)", `Quick, test_cluster_echo Cluster.Parallel);
    ("cluster error propagation (deterministic)", `Quick, test_cluster_error Cluster.Deterministic);
    ("cluster error propagation (parallel)", `Quick, test_cluster_error Cluster.Parallel);
    ("cluster same-shard fast path", `Quick, test_cluster_fast_path);
    ("cluster run-once guard", `Quick, test_cluster_run_once);
    ("cluster proxy: out-of-range shard refused before run", `Quick, test_proxy_out_of_range);
    ("parallel smoke", `Quick, test_parallel_smoke);
    ("parallel single domain", `Quick, test_parallel_single_domain);
    ("parallel-vs-deterministic equivalence", `Quick, test_equivalence);
    ("windowed fan-in equivalence", `Quick, test_equivalence_windowed);
    ("adaptive fan-in deterministic repeatable", `Quick, test_adaptive_det_repeatable);
    ("deterministic mode repeatable", `Quick, test_det_repeatable);
  ]
