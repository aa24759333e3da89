(* The asymmetric stream protocol: ports, intakes, pull/push clients,
   transforms, and whole pipelines under all three disciplines.  The
   invocation-count assertions here are the paper's central claims. *)

open Eden_kernel
open Eden_transput
module Topo = Eden_par.Topo

let check = Alcotest.check
let prop name ?(count = 60) gen f =
  Seed.to_alcotest (QCheck2.Test.make ~name ~count gen f)

let vstrs = List.map (fun s -> Value.Str s)
let unstrs = List.map Value.to_str

(* Generator over a fixed list. *)
let list_gen items =
  let rest = ref items in
  fun () ->
    match !rest with
    | [] -> None
    | x :: tl ->
        rest := tl;
        Some x

let collector () =
  let acc = ref [] in
  let consume v = acc := v :: !acc in
  let get () = List.rev !acc in
  (consume, get)

(* ------------------------------------------------------------------ *)
(* Transform (pure)                                                   *)
(* ------------------------------------------------------------------ *)

let test_transform_identity () =
  let xs = vstrs [ "a"; "b" ] in
  Alcotest.(check bool) "id" true (Transform.run_list Transform.identity xs = xs)

let test_transform_map_filter () =
  let xs = List.map Value.int [ 1; 2; 3; 4 ] in
  let doubled = Transform.run_list (Transform.map (fun v -> Value.int (2 * Value.to_int v))) xs in
  check Alcotest.(list int) "map" [ 2; 4; 6; 8 ] (List.map Value.to_int doubled);
  let evens = Transform.run_list (Transform.filter (fun v -> Value.to_int v mod 2 = 0)) xs in
  check Alcotest.(list int) "filter" [ 2; 4 ] (List.map Value.to_int evens)

let test_transform_stateful_flush () =
  (* Pair up consecutive items; flush emits the odd tail. *)
  let pairer =
    Transform.stateful ~init:None
      ~step:(fun st v ->
        match st with
        | None -> (Some v, [])
        | Some prev -> (None, [ Value.pair prev v ]))
      ~flush:(function None -> [] | Some v -> [ v ])
  in
  let out = Transform.run_list pairer (List.map Value.int [ 1; 2; 3 ]) in
  check Alcotest.int "two outputs" 2 (List.length out);
  match out with
  | [ p; Value.Int 3 ] ->
      let a, b = Value.to_pair p in
      check Alcotest.int "pair fst" 1 (Value.to_int a);
      check Alcotest.int "pair snd" 2 (Value.to_int b)
  | _ -> Alcotest.fail "unexpected shape"

let test_transform_take_drop () =
  let xs = List.map Value.int [ 1; 2; 3; 4; 5 ] in
  check Alcotest.(list int) "take" [ 1; 2 ]
    (List.map Value.to_int (Transform.run_list (Transform.take 2) xs));
  check Alcotest.(list int) "drop" [ 4; 5 ]
    (List.map Value.to_int (Transform.run_list (Transform.drop 3) xs))

let test_transform_sort () =
  let sorter =
    Transform.buffer_all (List.sort (fun a b -> compare (Value.to_int a) (Value.to_int b)))
  in
  let out = Transform.run_list sorter (List.map Value.int [ 3; 1; 2 ]) in
  check Alcotest.(list int) "sorted" [ 1; 2; 3 ] (List.map Value.to_int out)

let prop_map_preserves_length =
  prop "map preserves length" QCheck2.Gen.(small_list (int_bound 50)) (fun xs ->
      let vs = List.map Value.int xs in
      List.length (Transform.run_list (Transform.map Fun.id) vs) = List.length vs)

(* ------------------------------------------------------------------ *)
(* Channel & Proto                                                    *)
(* ------------------------------------------------------------------ *)

let test_channel_roundtrip () =
  let g = Uid.generator ~seed:3L in
  let cases = [ Channel.output; Channel.report; Channel.Num 7; Channel.Cap (Uid.fresh g) ] in
  List.iter
    (fun c ->
      Alcotest.(check bool)
        (Channel.to_string c) true
        (Channel.equal c (Channel.of_value (Channel.to_value c))))
    cases;
  Alcotest.(check bool) "num/cap unequal" false (Channel.equal (Channel.Num 0) (Channel.Cap (Uid.fresh g)))

let test_proto_roundtrip () =
  let req = Proto.transfer_request (Channel.Num 2) ~credit:5 in
  let c, n = Proto.parse_transfer_request req in
  Alcotest.(check bool) "chan" true (Channel.equal c (Channel.Num 2));
  check Alcotest.int "credit" 5 n;
  let reply = Proto.transfer_reply { Proto.eos = true; items = vstrs [ "x" ] } in
  let r = Proto.parse_transfer_reply reply in
  Alcotest.(check bool) "eos" true r.Proto.eos;
  check Alcotest.(list string) "items" [ "x" ] (unstrs r.Proto.items);
  let dep = Proto.deposit_request Channel.report ~eos:false (vstrs [ "a"; "b" ]) in
  let c', e', items' = Proto.parse_deposit_request dep in
  Alcotest.(check bool) "dep chan" true (Channel.equal c' Channel.report);
  Alcotest.(check bool) "dep eos" false e';
  check Alcotest.(list string) "dep items" [ "a"; "b" ] (unstrs items');
  check Alcotest.int "dep ack" 7 (Proto.parse_deposit_ack (Proto.deposit_ack ~next_seq:7));
  Alcotest.(check bool) "a unit Deposit ack is malformed" true
    (try
       ignore (Proto.parse_deposit_ack Value.Unit);
       false
     with Value.Protocol_error _ -> true)

let test_proto_rejects_malformed () =
  Alcotest.(check bool) "zero credit" true
    (try
       ignore (Proto.parse_transfer_request (Proto.transfer_request Channel.output ~credit:1));
       ignore (Proto.parse_transfer_request (Value.List [ Value.Int 0; Value.Int 0 ]));
       false
     with Value.Protocol_error _ -> true);
  Alcotest.(check bool) "garbage" true
    (try
       ignore (Proto.parse_transfer_reply (Value.Str "nope"));
       false
     with Value.Protocol_error _ -> true)

(* ------------------------------------------------------------------ *)
(* Port / Pull through real ejects                                    *)
(* ------------------------------------------------------------------ *)

let test_source_pull_roundtrip () =
  let k = Kernel.create () in
  let src = Stage.source_ro k (list_gen (vstrs [ "a"; "b"; "c" ])) in
  let out = ref [] in
  Kernel.run_driver k (fun ctx ->
      let pull = Pull.connect ctx src in
      Pull.iter (fun v -> out := v :: !out) pull);
  check Alcotest.(list string) "items in order" [ "a"; "b"; "c" ] (unstrs (List.rev !out))

let test_pull_batching_fewer_transfers () =
  let items = List.init 12 (fun i -> Value.int i) in
  let run batch =
    let k = Kernel.create () in
    let src = Stage.source_ro k ~capacity:16 (list_gen items) in
    let transfers = ref 0 in
    Kernel.run_driver k (fun ctx ->
        let pull = Pull.connect ctx ~batch src in
        Pull.iter ignore pull;
        transfers := Pull.transfers_issued pull);
    !transfers
  in
  let t1 = run 1 and t4 = run 4 in
  Alcotest.(check bool) "batch 4 uses fewer transfers" true (t4 < t1);
  Alcotest.(check bool) "batch 1 needs >= 12" true (t1 >= 12)

let test_port_unknown_channel_refused () =
  let k = Kernel.create () in
  let src = Stage.source_ro k (list_gen (vstrs [ "a" ])) in
  let refused = ref false in
  Kernel.run_driver k (fun ctx ->
      let pull = Pull.connect ctx ~channel:(Channel.Num 9) src in
      try ignore (Pull.read pull) with Kernel.Eden_error _ -> refused := true);
  Alcotest.(check bool) "refused" true !refused

let test_port_capability_channel_security () =
  (* The paper's §5: with capability channel ids, only Ejects given the
     capability can read; integer ids are forgeable. *)
  let k = Kernel.create () in
  let cap = ref None in
  let src =
    Stage.custom k ~name:"secretive" (fun ctx ~passive:_ ->
        let port = Port.create () in
        let c = Channel.Cap (Kernel.self ctx) in
        (* self UID doubles as an unguessable token here *)
        cap := Some c;
        let w = Port.add_channel port ~capacity:4 c in
        Kernel.spawn_worker ctx (fun () ->
            Port.write w (Value.Str "secret");
            Port.close w);
        Port.handlers port)
  in
  let legit = ref None and forged = ref false in
  Kernel.run_driver k (fun ctx ->
      (* Forger guesses integer channels. *)
      let guess = Pull.connect ctx ~channel:(Channel.Num 0) src in
      (try ignore (Pull.read guess) with Kernel.Eden_error _ -> forged := true);
      (* Holder of the capability reads fine. *)
      match !cap with
      | Some c ->
          let pull = Pull.connect ctx ~channel:c src in
          legit := Pull.read pull
      | None -> Alcotest.fail "capability not minted");
  Alcotest.(check bool) "guessing refused" true !forged;
  check Alcotest.(option string) "capability works" (Some "secret")
    (Option.map Value.to_str !legit)

let test_lazy_source_produces_nothing () =
  (* §4: filters are pure transformers; no data flows until a sink is
     connected.  A lazy source left alone must never run its
     generator. *)
  let k = Kernel.create () in
  let generated = ref 0 in
  let gen () =
    incr generated;
    Some (Value.Int !generated)
  in
  let src = Stage.source_ro k ~capacity:0 gen in
  Kernel.poke k src;
  (* Activated but with no demand: the generator must not run. *)
  Kernel.run k;
  check Alcotest.int "generator never ran" 0 !generated;
  (* Now a consumer asks for exactly three items: exactly three are
     generated — demand-driven production. *)
  Kernel.run_driver k (fun ctx ->
      let pull = Pull.connect ctx src in
      for _ = 1 to 3 do
        ignore (Pull.read pull)
      done);
  check Alcotest.int "exactly the demanded items" 3 !generated

let test_eager_source_runs_ahead () =
  let k = Kernel.create () in
  let generated = ref 0 in
  let items = List.init 10 (fun i -> Value.int i) in
  let inner = list_gen items in
  let gen () =
    let r = inner () in
    if r <> None then incr generated;
    r
  in
  let src = Stage.source_ro k ~capacity:4 gen in
  Kernel.poke k src;
  Kernel.run k;
  Kernel.run k;
  check Alcotest.int "ran 4 ahead, no more" 4 !generated

(* ------------------------------------------------------------------ *)
(* Intake / Push                                                      *)
(* ------------------------------------------------------------------ *)

let test_push_sink_roundtrip () =
  let k = Kernel.create () in
  let consume, got = collector () in
  let finished = ref false in
  let sink = Stage.sink_wo k ~on_done:(fun () -> finished := true) consume in
  Kernel.run_driver k (fun ctx ->
      let push = Push.connect ctx sink in
      List.iter (Push.write push) (vstrs [ "x"; "y" ]);
      Push.close push);
  Alcotest.(check bool) "eos seen" true !finished;
  check Alcotest.(list string) "delivered" [ "x"; "y" ] (unstrs (got ()))

let test_push_batch_coalesces_deposits () =
  let k = Kernel.create () in
  let consume, _got = collector () in
  let sink = Stage.sink_wo k ~capacity:8 consume in
  let deposits = ref 0 in
  Kernel.run_driver k (fun ctx ->
      let push = Push.connect ctx ~batch:4 sink in
      List.iter (Push.write push) (List.init 8 Value.int);
      Push.close push;
      deposits := Push.deposits_issued push);
  (* 8 items / batch 4 = 2 deposits + 1 closing eos deposit *)
  check Alcotest.int "three deposits" 3 !deposits

let test_deposit_after_eos_refused () =
  let k = Kernel.create () in
  let sink = Stage.sink_wo k ignore in
  let refused = ref false in
  Kernel.run_driver k (fun ctx ->
      let push = Push.connect ctx sink in
      Push.close push;
      match
        Kernel.invoke ctx sink ~op:Proto.deposit_op
          (Proto.deposit_request Channel.output ~eos:false [ Value.Int 1 ])
      with
      | Error _ -> refused := true
      | Ok _ -> ());
  Alcotest.(check bool) "late deposit refused" true !refused

let test_intake_backpressure_blocks_producer () =
  (* A fast producer into a slow sink with capacity 1: deposits are
     held until the consumer drains, so virtual time advances with the
     consumer, not the producer. *)
  let k = Kernel.create ~latency:(Eden_net.Net.Fixed 0.001) () in
  let consumed = ref [] in
  let sink =
    Stage.sink_wo k ~capacity:1 (fun v ->
        Eden_sched.Sched.sleep 10.0;
        consumed := v :: !consumed)
  in
  let src = Stage.source_wo k ~downstream:sink (list_gen (List.init 5 Value.int)) in
  Kernel.poke k src;
  Kernel.run k;
  Eden_sched.Sched.check_failures (Kernel.sched k);
  check Alcotest.int "all consumed" 5 (List.length !consumed);
  Alcotest.(check bool) "took consumer-paced time" true (Eden_sched.Sched.now (Kernel.sched k) >= 50.0)

(* ------------------------------------------------------------------ *)
(* Whole pipelines                                                    *)
(* ------------------------------------------------------------------ *)

let upcase_tr =
  Transform.map (fun v -> Value.Str (String.uppercase_ascii (Value.to_str v)))

let reverse_tr =
  Transform.map (fun v ->
      let s = Value.to_str v in
      Value.Str (String.init (String.length s) (fun i -> s.[String.length s - 1 - i])))

let no_b_tr = Transform.filter (fun v -> not (String.contains (Value.to_str v) 'b'))

let run_pipeline ?(n_items = 8) ?(capacity = 0) ?(batch = 1) kernel_args discipline filters =
  let k = Kernel.create ~seed:kernel_args () in
  let items = List.init n_items (fun i -> Value.Str (Printf.sprintf "item-%02d%s" i (if i mod 3 = 0 then "b" else ""))) in
  let consume, got = collector () in
  let before = Kernel.Meter.snapshot k in
  let p = Topo.pipeline k ~capacity ~batch discipline ~gen:(list_gen items) ~filters ~consume in
  Kernel.run_driver k (fun _ctx -> Pipeline.run p);
  let d = Kernel.Meter.diff (Kernel.Meter.snapshot k) before in
  (p, got (), d, items)

let expected_output filters items =
  List.fold_left (fun acc tr -> Transform.run_list tr acc) items filters

let test_pipeline_output_all_disciplines () =
  let filters = [ upcase_tr; no_b_tr; reverse_tr ] in
  List.iter
    (fun disc ->
      let _, out, _, items = run_pipeline 7L disc filters in
      let expected = expected_output filters items in
      check
        Alcotest.(list string)
        (Pipeline.discipline_name disc)
        (unstrs expected) (unstrs out))
    Pipeline.all_disciplines

let test_pipeline_disciplines_agree () =
  let filters = [ no_b_tr; upcase_tr ] in
  let outputs =
    List.map (fun d -> let _, out, _, _ = run_pipeline 11L d filters in unstrs out) Pipeline.all_disciplines
  in
  match outputs with
  | [ a; b; c ] ->
      check Alcotest.(list string) "ro = wo" a b;
      check Alcotest.(list string) "ro = conv" a c
  | _ -> Alcotest.fail "expected three outputs"

let test_pipeline_entity_counts () =
  List.iter
    (fun disc ->
      let n = 3 in
      let p, _, d, _ = run_pipeline 5L disc [ upcase_tr; reverse_tr; upcase_tr ] in
      let pred = Pipeline.predict disc ~n_filters:n in
      check Alcotest.int
        (Pipeline.discipline_name disc ^ " entities")
        pred.Pipeline.entities (Pipeline.entity_count p);
      check Alcotest.int
        (Pipeline.discipline_name disc ^ " metered ejects")
        pred.Pipeline.entities d.Kernel.Meter.ejects_created)
    Pipeline.all_disciplines

(* The paper's central quantitative claim: invocations per datum is
   n+1 in the asymmetric disciplines and 2n+2 conventionally.  With
   batch = 1 the measured total over N items is within one extra
   end-of-stream handshake per stage of the formula. *)
let test_pipeline_invocation_counts () =
  let n_items = 16 in
  List.iter
    (fun disc ->
      List.iter
        (fun n_filters ->
          let filters = List.init n_filters (fun _ -> Transform.identity) in
          let _, out, d, _ = run_pipeline 13L ~n_items disc filters in
          check Alcotest.int "all items arrive" n_items (List.length out);
          let pred = Pipeline.predict disc ~n_filters in
          let per_datum = pred.Pipeline.invocations_per_datum in
          let stages = per_datum in
          (* stages issuing invocations = per-datum count *)
          let lo = per_datum * n_items in
          let hi = (per_datum * (n_items + 1)) + stages in
          let inv = d.Kernel.Meter.invocations in
          if not (inv >= lo && inv <= hi) then
            Alcotest.failf "%s n=%d: invocations %d outside [%d,%d]"
              (Pipeline.discipline_name disc) n_filters inv lo hi)
        [ 0; 1; 2; 4 ])
    Pipeline.all_disciplines

let test_read_only_beats_conventional () =
  let filters = List.init 4 (fun _ -> Transform.identity) in
  let _, _, d_ro, _ = run_pipeline 17L ~n_items:32 Pipeline.Read_only filters in
  let _, _, d_cv, _ = run_pipeline 17L ~n_items:32 Pipeline.Conventional filters in
  let ratio = float_of_int d_cv.Kernel.Meter.invocations /. float_of_int d_ro.Kernel.Meter.invocations in
  (* 2n+2 / n+1 = 2 exactly in the limit. *)
  Alcotest.(check bool) (Printf.sprintf "ratio %.2f near 2" ratio) true (ratio > 1.7 && ratio < 2.3)

let test_duals_have_equal_cost () =
  let filters = List.init 3 (fun _ -> Transform.identity) in
  let _, _, d_ro, _ = run_pipeline 19L ~n_items:20 Pipeline.Read_only filters in
  let _, _, d_wo, _ = run_pipeline 19L ~n_items:20 Pipeline.Write_only filters in
  let near a b = abs (a - b) <= 4 in
  Alcotest.(check bool)
    (Printf.sprintf "ro %d ~ wo %d" d_ro.Kernel.Meter.invocations d_wo.Kernel.Meter.invocations)
    true
    (near d_ro.Kernel.Meter.invocations d_wo.Kernel.Meter.invocations)

let test_pipeline_empty_stream () =
  List.iter
    (fun disc ->
      let _, out, _, _ = run_pipeline 23L ~n_items:0 disc [ upcase_tr ] in
      check Alcotest.(list string) "no output" [] (unstrs out))
    Pipeline.all_disciplines

let test_pipeline_zero_filters () =
  List.iter
    (fun disc ->
      let _, out, _, items = run_pipeline 29L ~n_items:5 disc [] in
      check Alcotest.(list string) "source to sink" (unstrs items) (unstrs out))
    Pipeline.all_disciplines

let test_pipeline_prefetch_still_correct () =
  let filters = [ upcase_tr; no_b_tr ] in
  List.iter
    (fun capacity ->
      let _, out, _, items = run_pipeline 31L ~capacity Pipeline.Read_only filters in
      check Alcotest.(list string)
        (Printf.sprintf "capacity %d" capacity)
        (unstrs (expected_output filters items))
        (unstrs out))
    [ 0; 1; 4; 16 ]

let test_pipeline_batching_still_correct () =
  let filters = [ reverse_tr ] in
  List.iter
    (fun batch ->
      let _, out, _, items = run_pipeline 37L ~batch ~n_items:10 Pipeline.Read_only filters in
      check Alcotest.(list string)
        (Printf.sprintf "batch %d" batch)
        (unstrs (expected_output filters items))
        (unstrs out))
    [ 1; 2; 5; 32 ]

let test_pipeline_across_nodes () =
  let k = Kernel.create ~nodes:[ "vax-1"; "vax-2"; "vax-3" ] () in
  let items = vstrs [ "p"; "q"; "r" ] in
  let consume, got = collector () in
  let p =
    Topo.pipeline k ~nodes:(Kernel.nodes k) Pipeline.Read_only ~gen:(list_gen items)
      ~filters:[ upcase_tr ] ~consume
  in
  Kernel.run_driver k (fun _ -> Pipeline.run p);
  check Alcotest.(list string) "distributed pipeline works" [ "P"; "Q"; "R" ] (unstrs (got ()))

let test_fan_in_read_only () =
  (* §5: read-only permits arbitrary fan-in — a sink reading from two
     sources by holding two UIDs. *)
  let k = Kernel.create () in
  let s1 = Stage.source_ro k ~name:"src1" (list_gen (vstrs [ "a1"; "a2" ])) in
  let s2 = Stage.source_ro k ~name:"src2" (list_gen (vstrs [ "b1"; "b2" ])) in
  let out = ref [] in
  Kernel.run_driver k (fun ctx ->
      let p1 = Pull.connect ctx s1 and p2 = Pull.connect ctx s2 in
      Pull.iter (fun v -> out := v :: !out) p1;
      Pull.iter (fun v -> out := v :: !out) p2);
  check Alcotest.(list string) "both streams read" [ "a1"; "a2"; "b1"; "b2" ] (unstrs (List.rev !out))

let test_fan_out_read_only_steals () =
  (* §5: naive read-only fan-out cannot work — two readers of the same
     channel steal items from each other rather than each seeing the
     whole stream. *)
  let k = Kernel.create () in
  let src = Stage.source_ro k ~capacity:0 (list_gen (List.init 6 Value.int)) in
  let got1 = ref [] and got2 = ref [] in
  let done_ = Eden_sched.Waitgroup.create () in
  Eden_sched.Waitgroup.add done_ 2;
  let mk out name =
    Stage.sink_ro k ~name ~upstream:src
      ~on_done:(fun () -> Eden_sched.Waitgroup.finish done_)
      (fun v -> out := v :: !out)
  in
  let k1 = mk got1 "reader1" and k2 = mk got2 "reader2" in
  Kernel.poke k k1;
  Kernel.poke k k2;
  Kernel.run k;
  Eden_sched.Sched.check_failures (Kernel.sched k);
  let n1 = List.length !got1 and n2 = List.length !got2 in
  check Alcotest.int "every item went somewhere" 6 (n1 + n2);
  Alcotest.(check bool) "neither saw the whole stream" true (n1 < 6 && n2 < 6)

let test_fan_out_write_only () =
  (* §5 dual: write-only fan-out is natural — one filter pushes to as
     many sinks as it likes. *)
  let k = Kernel.create () in
  let c1, g1 = collector () in
  let c2, g2 = collector () in
  let sink1 = Stage.sink_wo k ~name:"sink1" c1 in
  let sink2 = Stage.sink_wo k ~name:"sink2" c2 in
  let src =
    Stage.custom k ~name:"fanout" (fun ctx ~passive:_ ->
        Kernel.spawn_worker ctx (fun () ->
            let p1 = Push.connect ctx sink1 and p2 = Push.connect ctx sink2 in
            List.iter
              (fun v ->
                Push.write p1 v;
                Push.write p2 v)
              (vstrs [ "x"; "y" ]);
            Push.close p1;
            Push.close p2);
        [])
  in
  Kernel.poke k src;
  Kernel.run k;
  Eden_sched.Sched.check_failures (Kernel.sched k);
  check Alcotest.(list string) "sink1 got all" [ "x"; "y" ] (unstrs (g1 ()));
  check Alcotest.(list string) "sink2 got all" [ "x"; "y" ] (unstrs (g2 ()))

let test_head_over_infinite_source_terminates () =
  (* Demand-driven corollary of §4: a [take]-style filter over an
     INFINITE source terminates, because nothing downstream of the cut
     ever demands more.  In the conventional push world this needs
     SIGPIPE; here it falls out of laziness. *)
  let k = Kernel.create () in
  let generated = ref 0 in
  let src =
    Stage.source_ro k ~capacity:0 (fun () ->
        incr generated;
        Some (Value.Int !generated))
  in
  let first3 = Stage.filter_ro k ~upstream:src (Transform.take 3) in
  let got = ref [] in
  let done_ = ref false in
  let sink =
    Stage.sink_ro k ~upstream:first3
      ~on_done:(fun () -> done_ := true)
      (fun v -> got := Value.to_int v :: !got)
  in
  Kernel.poke k sink;
  Kernel.run k;
  Alcotest.(check bool) "pipeline completed" true !done_;
  check Alcotest.(list int) "exactly three items" [ 1; 2; 3 ] (List.rev !got);
  Alcotest.(check bool)
    (Printf.sprintf "source generated only %d" !generated)
    true (!generated <= 4)

let test_multi_channel_port () =
  (* Figure 4: one Eject serving Output and Report channels
     independently. *)
  let k = Kernel.create () in
  let src =
    Stage.custom k ~name:"reporter" (fun ctx ~passive:_ ->
        let port = Port.create () in
        let out = Port.add_channel port ~capacity:8 Channel.output in
        let rep = Port.add_channel port ~capacity:8 Channel.report in
        Kernel.spawn_worker ctx (fun () ->
            List.iter
              (fun i ->
                Port.write out (Value.Str (Printf.sprintf "data-%d" i));
                if i mod 2 = 0 then
                  Port.write rep (Value.Str (Printf.sprintf "report-%d" i)))
              [ 1; 2; 3; 4 ];
            Port.close out;
            Port.close rep);
        Port.handlers port)
  in
  let data = ref [] and reports = ref [] in
  Kernel.run_driver k (fun ctx ->
      let pd = Pull.connect ctx ~channel:Channel.output src in
      let pr = Pull.connect ctx ~channel:Channel.report src in
      Pull.iter (fun v -> data := v :: !data) pd;
      Pull.iter (fun v -> reports := v :: !reports) pr);
  check Alcotest.(list string) "main stream" [ "data-1"; "data-2"; "data-3"; "data-4" ]
    (unstrs (List.rev !data));
  check Alcotest.(list string) "report stream" [ "report-2"; "report-4" ]
    (unstrs (List.rev !reports))

let prop_pipeline_roundtrip =
  let line_gen = QCheck2.Gen.(string_size ~gen:(char_range 'a' 'z') (int_range 0 6)) in
  prop ~count:25 "identity pipeline is the identity on any stream"
    QCheck2.Gen.(pair (int_range 0 2) (small_list line_gen))
    (fun (n_filters, lines) ->
      let k = Kernel.create () in
      let items = vstrs lines in
      let consume, got = collector () in
      let p =
        Topo.pipeline k Pipeline.Read_only ~gen:(list_gen items)
          ~filters:(List.init n_filters (fun _ -> Transform.identity))
          ~consume
      in
      Kernel.run_driver k (fun _ -> Pipeline.run p);
      unstrs (got ()) = lines)

let prop_cost_model_matches_meter =
  prop ~count:20 "metered invocations stay within the cost-model window"
    QCheck2.Gen.(pair (int_range 0 4) (int_range 1 12))
    (fun (n_filters, n_items) ->
      let k = Kernel.create () in
      let items = List.init n_items Value.int in
      let consume, _ = collector () in
      let before = Kernel.Meter.snapshot k in
      let p =
        Topo.pipeline k Pipeline.Read_only ~gen:(list_gen items)
          ~filters:(List.init n_filters (fun _ -> Transform.identity))
          ~consume
      in
      Kernel.run_driver k (fun _ -> Pipeline.run p);
      let d = Kernel.Meter.diff (Kernel.Meter.snapshot k) before in
      let per = (Pipeline.predict Pipeline.Read_only ~n_filters).Pipeline.invocations_per_datum in
      d.Kernel.Meter.invocations >= per * n_items
      && d.Kernel.Meter.invocations <= (per * (n_items + 1)) + per)

let suite =
  [
    ("transform identity", `Quick, test_transform_identity);
    ("transform map/filter", `Quick, test_transform_map_filter);
    ("transform stateful flush", `Quick, test_transform_stateful_flush);
    ("transform take/drop", `Quick, test_transform_take_drop);
    ("transform sort via buffer_all", `Quick, test_transform_sort);
    ("channel roundtrip", `Quick, test_channel_roundtrip);
    ("proto roundtrip", `Quick, test_proto_roundtrip);
    ("proto rejects malformed", `Quick, test_proto_rejects_malformed);
    ("source/pull roundtrip", `Quick, test_source_pull_roundtrip);
    ("pull batching", `Quick, test_pull_batching_fewer_transfers);
    ("unknown channel refused", `Quick, test_port_unknown_channel_refused);
    ("capability channel security", `Quick, test_port_capability_channel_security);
    ("lazy source produces nothing", `Quick, test_lazy_source_produces_nothing);
    ("eager source runs ahead", `Quick, test_eager_source_runs_ahead);
    ("push/sink roundtrip", `Quick, test_push_sink_roundtrip);
    ("push batch coalesces", `Quick, test_push_batch_coalesces_deposits);
    ("deposit after eos refused", `Quick, test_deposit_after_eos_refused);
    ("intake backpressure", `Quick, test_intake_backpressure_blocks_producer);
    ("pipeline output, all disciplines", `Quick, test_pipeline_output_all_disciplines);
    ("pipeline disciplines agree", `Quick, test_pipeline_disciplines_agree);
    ("pipeline entity counts", `Quick, test_pipeline_entity_counts);
    ("pipeline invocation counts", `Quick, test_pipeline_invocation_counts);
    ("read-only beats conventional ~2x", `Quick, test_read_only_beats_conventional);
    ("duals have equal cost", `Quick, test_duals_have_equal_cost);
    ("pipeline empty stream", `Quick, test_pipeline_empty_stream);
    ("pipeline zero filters", `Quick, test_pipeline_zero_filters);
    ("prefetch still correct", `Quick, test_pipeline_prefetch_still_correct);
    ("batching still correct", `Quick, test_pipeline_batching_still_correct);
    ("pipeline across nodes", `Quick, test_pipeline_across_nodes);
    ("fan-in read-only", `Quick, test_fan_in_read_only);
    ("fan-out read-only steals", `Quick, test_fan_out_read_only_steals);
    ("fan-out write-only", `Quick, test_fan_out_write_only);
    ("head over infinite source terminates", `Quick, test_head_over_infinite_source_terminates);
    ("multi-channel port", `Quick, test_multi_channel_port);
    prop_map_preserves_length;
    prop_pipeline_roundtrip;
    prop_cost_model_matches_meter;
  ]
