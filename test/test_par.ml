(* Parallel runtime: cross-domain primitives under real Domain.spawn
   contention, the cluster's proxy/termination machinery in both modes,
   and the parallel-vs-deterministic equivalence contract. *)

open Eden_par
module Kernel = Eden_kernel.Kernel
module Value = Eden_kernel.Value
module Uid = Eden_kernel.Uid
module Flowctl = Eden_flowctl.Flowctl
module Credit = Eden_flowctl.Credit
module Check = Eden_check.Check
module Policy = Eden_check.Policy

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

(* --- Cut edges -------------------------------------------------------- *)

(* A credit window pipelines a read inside one kernel, but not across a
   shard boundary: the [par-proxy] Eject is [Serial], so its coordinator
   waits for each forwarded reply before it takes the next Transfer and
   a cut edge carries one exchange at a time.  A reader takes 64 items
   from a capacity-16 [source_ro] with windows 1, 4 and 16, first with
   the source on a second Net node of its own kernel, then through a
   proxy at 2 [Deterministic] shards.  On one kernel the window divides
   the makespan; across the cut it does not, and the requests a window
   sends past end of stream cost cross messages.  The figures are
   pinned so that a change to cut edges shows in its own diff. *)
let cut_edge_read ~window ~cut =
  let items = 64 in
  let gen () =
    let next = ref 0 in
    fun () ->
      if !next >= items then None
      else begin
        incr next;
        Some (Value.Int !next)
      end
  in
  let flowctl = Flowctl.fixed ~credit:(Credit.Window window) 1 in
  let read ctx src =
    let pull = Eden_transput.Pull.connect ctx ~flowctl src in
    let n = ref 0 in
    Eden_transput.Pull.iter (fun _ -> incr n) pull;
    Alcotest.(check int) "every item read" items !n
  in
  if cut then begin
    let c = Cluster.create Deterministic ~shards:2 () in
    let src = Eden_transput.Stage.source_ro (Cluster.kernel c 1) ~capacity:16 (gen ()) in
    let p = Cluster.proxy c ~shard:0 ~ops:[ Eden_transput.Proto.transfer_op ] ~target:(1, src) in
    Cluster.driver c 0 (fun ctx -> read ctx p);
    Cluster.run c;
    ((Cluster.makespans c).(0), Cluster.cross_messages c)
  end
  else begin
    let k = Kernel.create ~nodes:[ "reader"; "source" ] () in
    let node = List.nth (Kernel.nodes k) 1 in
    let src = Eden_transput.Stage.source_ro k ~node ~capacity:16 (gen ()) in
    Kernel.run_driver k (fun ctx -> read ctx src);
    (Eden_sched.Sched.now (Kernel.sched k), 0)
  end

let test_cut_edge_windows () =
  List.iter
    (fun (window, one, cut, cross) ->
      let at what = Printf.sprintf "window %d: %s" window what in
      let one', _ = cut_edge_read ~window ~cut:false in
      let cut', cross' = cut_edge_read ~window ~cut:true in
      Alcotest.(check (float 1e-9)) (at "one-kernel makespan") one one';
      Alcotest.(check (float 1e-9)) (at "reader's shard makespan across the cut") cut cut';
      Alcotest.(check int) (at "cross messages") cross cross')
    [ (1, 128.0, 12.8, 128); (4, 34.0, 13.1, 134); (16, 10.0, 14.3, 158) ]

(* --- Termination model ------------------------------------------------ *)

(* [Cluster.shard_loop]'s termination rule as a state machine.  Each
   step is one atomic action of a shard's loop or of [post], named after
   the line it stands for, and [Check.decide] picks which ready shard
   takes the next step.  Shard 0's driver makes [requests] proxied calls
   in turn, round-robin over the other shards: a Request out and a Reply
   back.  [two_counter] is the rule the loop had before: an [idle] count
   and an [in_flight] count, read one after the other. *)

type msg = Request | Reply

type step =
  | Post_incr  (* post: Atomic.incr t.active, before the push *)
  | Post_push  (* post: Dqueue.push t.shards.(dst).inbox m *)
  | Try_pop  (* Dqueue.try_pop sh.inbox *)
  | Taken of msg  (* Some m -> Atomic.decr t.active *)
  | Block  (* None -> if Atomic.fetch_and_add t.active (-1) = 1 then close_all t *)
  | Idle_join  (* two counters: let idle_now = 1 + Atomic.fetch_and_add t.idle 1 *)
  | Idle_check of int  (* two counters: if idle_now = n && in_flight = 0 then close_all t *)
  | Pop  (* Dqueue.pop sh.inbox: waits while the inbox is empty and open *)
  | Idle_leave of msg  (* two counters: Some m -> Atomic.decr t.idle *)
  | Woken of msg  (* two counters: Atomic.decr t.in_flight *)
  | Exited  (* Dqueue.pop returned None *)

let termination_model ~two_counter ~shards:n ~requests ctl =
  let inbox = Array.init n (fun _ -> Queue.create ()) in
  let closed = ref false in
  (* [active] for the one-counter rule, [in_flight] for the other. *)
  let count = ref (if two_counter then 0 else n) in
  let idle = ref 0 in
  (* What each shard's scheduler will post next, as (dst, msg). *)
  let out = Array.make n [] in
  let replies = ref 0 in
  let target k = 1 + (k mod (n - 1)) in
  out.(0) <- [ (target 0, Request) ];
  let run i = if out.(i) = [] then Try_pop else Post_incr in
  let pc = Array.init n run in
  let resume i m =
    (match m with
    | Request -> out.(i) <- [ (0, Reply) ]
    | Reply ->
        incr replies;
        if !replies < requests then out.(0) <- [ (target !replies, Request) ]);
    pc.(i) <- run i
  in
  let step i =
    match pc.(i) with
    | Post_incr ->
        incr count;
        pc.(i) <- Post_push
    | Post_push -> (
        match out.(i) with
        | (dst, m) :: rest ->
            if !closed then invalid_arg "Cluster: message posted after shutdown";
            Queue.push m inbox.(dst);
            out.(i) <- rest;
            pc.(i) <- run i
        | [] -> assert false)
    | Try_pop -> (
        match Queue.take_opt inbox.(i) with
        | Some m -> pc.(i) <- Taken m
        | None -> pc.(i) <- (if two_counter then Idle_join else Block))
    | Taken m | Woken m ->
        decr count;
        resume i m
    | Block ->
        decr count;
        if !count = 0 then closed := true;
        pc.(i) <- Pop
    | Idle_join ->
        incr idle;
        pc.(i) <- Idle_check !idle
    | Idle_check idle_now ->
        if idle_now = n && !count = 0 then closed := true;
        pc.(i) <- Pop
    | Pop -> (
        match Queue.take_opt inbox.(i) with
        | Some m -> if two_counter then pc.(i) <- Idle_leave m else resume i m
        | None -> pc.(i) <- Exited)
    | Idle_leave m ->
        decr idle;
        pc.(i) <- Woken m
    | Exited -> assert false
  in
  let ready i =
    match pc.(i) with
    | Exited -> false
    | Pop -> !closed || not (Queue.is_empty inbox.(i))
    | _ -> true
  in
  let rec go () =
    match List.filter ready (List.init n Fun.id) with
    | [] -> ()
    | shards ->
        step (List.nth shards (Check.decide ctl ~kind:"par.step" ~n:(List.length shards)));
        go ()
  in
  go ();
  if Array.exists (fun s -> s <> Exited) pc then
    failwith "deadlock: a shard waits on an inbox nobody closes";
  if !replies < requests then
    failwith (Printf.sprintf "deadlock: the driver waits for a Reply (%d of %d)" !replies requests)

let termination_configs = [ (2, 1); (2, 2); (2, 3); (3, 1); (3, 2); (3, 3) ]

(* The two-counter rule shuts the inboxes while a woken shard still has
   a Reply to post, at 2 shards and one request; the minimized schedule
   replays bit for bit, and the one-counter rule survives it. *)
let test_termination_two_counter_found () =
  let mutant = termination_model ~two_counter:true ~shards:2 ~requests:1 in
  let f =
    Check.find_bug ~budget:200 ~policy:Policy.Random ~seed:Seed.base ~replay_dir:"_check"
      ~name:"par-termination-two-counter" mutant
  in
  Alcotest.(check bool)
    "refused post" true
    (String.ends_with ~suffix:"message posted after shutdown\")" f.Check.error);
  match f.Check.replay_path with
  | None -> Alcotest.fail "no replay file written"
  | Some path ->
      let r = Check.replay ~path mutant in
      Alcotest.(check bool) "replay reproduces the failure" true r.Check.reproduced;
      Alcotest.(check bool) "replay is bit-identical" true r.Check.bit_identical;
      let ok = Check.replay ~path (termination_model ~two_counter:false ~shards:2 ~requests:1) in
      Alcotest.(check bool) "one counter survives the schedule" false ok.Check.reproduced

let test_termination_one_counter_passes () =
  (* At 2 shards and 1 request an unbounded DFS exhausts every
     interleaving; larger sizes branch on their first 12 decisions and
     sample the rest at random. *)
  (match
     Check.explore ~budget:5000 ~policy:(Policy.Dfs { max_branch = 2; max_steps = 200 })
       ~seed:Seed.base ~replay_dir:"_check" ~name:"par-termination-2x1-all"
       (termination_model ~two_counter:false ~shards:2 ~requests:1)
   with
  | Check.Passed { schedules } ->
      Alcotest.(check bool) "every interleaving explored" true (schedules < 5000)
  | Check.Failed f -> Alcotest.fail (Check.fail_message f));
  List.iter
    (fun (shards, requests) ->
      let prop = termination_model ~two_counter:false ~shards ~requests in
      List.iter
        (fun (policy, budget) ->
          ignore
            (Check.run_or_fail ~budget ~policy ~seed:Seed.base ~replay_dir:"_check"
               ~name:(Printf.sprintf "par-termination-%dx%d" shards requests)
               prop))
        [ (Policy.Dfs { max_branch = shards; max_steps = 12 }, 5000); (Policy.Random, 300) ])
    termination_configs

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
    ("cut edges: one exchange at a time", `Quick, test_cut_edge_windows);
    ("windowed fan-in equivalence", `Quick, test_equivalence_windowed);
    ("adaptive fan-in deterministic repeatable", `Quick, test_adaptive_det_repeatable);
    ("deterministic mode repeatable", `Quick, test_det_repeatable);
    ("termination model: two counters shut down under a running shard", `Quick,
      test_termination_two_counter_found);
    ("termination model: one counter passes every explored schedule", `Quick,
      test_termination_one_counter_passes);
  ]
