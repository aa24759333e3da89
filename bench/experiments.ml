(* The reproduction harness: one experiment per figure/table of
   DESIGN.md.  Each prints the measured counts next to the paper's
   predicted values.  Counts are exact (the kernel meters every
   invocation); virtual times come from the discrete-event clock. *)

open Eden_kernel
module T = Eden_transput
module Table = Eden_util.Table
module Cat = Eden_filters.Catalog
module Report = Eden_filters.Report
module Dev = Eden_devices.Devices
module Fs = Eden_fs.Unix_fs
module Fse = Eden_fs.Fs_eject

let vstrs = List.map (fun s -> Value.Str s)

let list_gen items =
  let rest = ref items in
  fun () ->
    match !rest with
    | [] -> None
    | x :: tl ->
        rest := tl;
        Some x

let doc n = List.init n (fun i -> Printf.sprintf "line-%03d the quick brown fox" i)

let section title =
  Printf.printf "\n%s\n%s\n\n" title (String.make (String.length title) '=')

(* --- Observability tables ------------------------------------------- *)

module Obs = Eden_obs.Obs

(* Every histogram the kernel's collector accumulated during the
   experiment: round-trip latency per op, network delay, message size. *)
let histogram_table ?(title = "Latency / size histograms (virtual time / bytes)") k =
  match Obs.histograms (Kernel.obs k) with
  | [] -> ()
  | hs ->
      let tbl =
        Table.create ~title
          ~columns:
            [
              ("histogram", Table.Left);
              ("n", Table.Right);
              ("p50", Table.Right);
              ("p90", Table.Right);
              ("p99", Table.Right);
              ("max", Table.Right);
            ]
      in
      List.iter
        (fun (name, h) ->
          Table.add_row tbl
            [
              name;
              Table.cell_int (Obs.Histogram.count h);
              Table.cell_float ~decimals:3 (Obs.Histogram.percentile h 0.5);
              Table.cell_float ~decimals:3 (Obs.Histogram.percentile h 0.9);
              Table.cell_float ~decimals:3 (Obs.Histogram.percentile h 0.99);
              Table.cell_float ~decimals:3 (Obs.Histogram.max_value h);
            ])
        hs;
      Table.print tbl

let flow_table ?(title = "Per-stage flow meters") flows =
  match flows with
  | [] -> ()
  | flows ->
      let tbl =
        Table.create ~title
          ~columns:
            [
              ("stage", Table.Left);
              ("in", Table.Right);
              ("out", Table.Right);
              ("batches", Table.Right);
              ("max occ", Table.Right);
              ("stall in", Table.Right);
              ("stall out", Table.Right);
            ]
      in
      List.iter
        (fun (label, fl) ->
          Table.add_row tbl
            [
              label;
              Table.cell_int fl.Obs.Flow.items_in;
              Table.cell_int fl.Obs.Flow.items_out;
              Table.cell_int fl.Obs.Flow.batches;
              Table.cell_int fl.Obs.Flow.max_occupancy;
              Table.cell_float ~decimals:2 fl.Obs.Flow.stall_in;
              Table.cell_float ~decimals:2 fl.Obs.Flow.stall_out;
            ])
        flows;
      Table.print tbl

(* Run one full pipeline; return (pipeline, metered diff, makespan,
   consumed count). *)
let run_pipeline ?(n_items = 64) ?(capacity = 0) ?(batch = 1) ?(latency = 1.0) discipline
    n_filters =
  let k = Kernel.create ~latency:(Eden_net.Net.Fixed latency) () in
  let filters = List.init n_filters (fun _ -> Cat.trim_trailing) in
  let consumed = ref 0 in
  let before = Kernel.Meter.snapshot k in
  let t0 = Eden_sched.Sched.now (Kernel.sched k) in
  let p =
    T.Pipeline.build k ~capacity ~batch discipline ~gen:(list_gen (vstrs (doc n_items)))
      ~filters
      ~consume:(fun _ -> incr consumed)
  in
  Kernel.run_driver k (fun _ -> T.Pipeline.run p);
  let d = Kernel.Meter.diff (Kernel.Meter.snapshot k) before in
  let makespan = Eden_sched.Sched.now (Kernel.sched k) -. t0 in
  (p, d, makespan, !consumed)

(* ------------------------------------------------------------------ *)
(* F1 / F2: the two pipeline figures                                   *)
(* ------------------------------------------------------------------ *)

let figure_experiment ~id ~discipline ~caption =
  let n_filters = 3 and n_items = 64 in
  let p, d, _, consumed = run_pipeline discipline n_filters ~n_items in
  let pred = T.Pipeline.predict discipline ~n_filters in
  let tbl =
    Table.create ~title:caption
      ~columns:
        [ ("metric", Table.Left); ("measured", Table.Right); ("paper", Table.Right) ]
  in
  Table.add_rows tbl
    [
      [ "data items end to end"; Table.cell_int consumed; Table.cell_int n_items ];
      [
        "entities (Ejects incl. pipes)";
        Table.cell_int (T.Pipeline.entity_count p);
        Table.cell_int pred.T.Pipeline.entities;
      ];
      [
        "passive buffer Ejects";
        Table.cell_int (List.length p.T.Pipeline.pipes);
        Table.cell_int
          (match discipline with T.Pipeline.Conventional -> n_filters + 1 | _ -> 0);
      ];
      [ "invocations (total)"; Table.cell_int d.Kernel.Meter.invocations; "-" ];
      [
        "invocations per datum";
        Table.cell_float (float_of_int d.Kernel.Meter.invocations /. float_of_int n_items);
        Table.cell_int pred.T.Pipeline.invocations_per_datum;
      ];
    ];
  Table.print tbl;
  histogram_table p.T.Pipeline.kernel;
  flow_table p.T.Pipeline.flows;
  ignore id

let fig1 () =
  section "F1  Figure 1: a pipeline in Unix (conventional discipline)";
  print_endline
    "Three filters performing active input AND active output, with a kernel\n\
     pipe (passive buffer) interposed between every adjacent pair (2n+2\n\
     invocations per datum, n+1 pipes).";
  figure_experiment ~id:"fig1" ~discipline:T.Pipeline.Conventional
    ~caption:"Figure 1 (conventional): n=3 filters, 64 lines"

let fig2 () =
  section "F2  Figure 2: the same pipeline in Eden with read-only transput";
  print_endline
    "The same three transformations; filters perform active input and passive\n\
     output, the sink pumps.  n+2 Ejects, n+1 invocations per datum, no\n\
     passive buffers.";
  figure_experiment ~id:"fig2" ~discipline:T.Pipeline.Read_only
    ~caption:"Figure 2 (read-only): n=3 filters, 64 lines"

(* ------------------------------------------------------------------ *)
(* F3 / F4: report streams                                             *)
(* ------------------------------------------------------------------ *)

let preview label lines =
  Printf.printf "%s (%d lines):\n" label (List.length lines);
  List.iteri (fun i l -> if i < 4 then Printf.printf "    %s\n" l) lines;
  if List.length lines > 4 then Printf.printf "    ... (%d more)\n" (List.length lines - 4)

let fig3 () =
  section "F3  Figure 3: write-only pipeline with Report streams";
  let k = Kernel.create () in
  let before = Kernel.Meter.snapshot k in
  let term = Dev.terminal_wo k () in
  let window = Dev.report_window_wo k ~writers:2 () in
  let f3 = T.Stage.filter_wo k ~name:"F3" ~downstream:term.Dev.uid Cat.upcase in
  let f2 = T.Stage.filter_wo k ~name:"F2" ~downstream:f3 (Cat.grep_v "drop") in
  let f1 =
    Report.filter_wo k ~name:"F1" ~downstream:f2 ~report_to:window.Dev.uid
      (Report.with_progress ~every:4 ~label:"F1" T.Transform.identity)
  in
  let src =
    Report.source_wo k ~name:"source" ~downstream:f1 ~report_to:window.Dev.uid ~label:"source"
      (list_gen (vstrs (doc 16 @ [ "drop this line" ])))
  in
  Kernel.poke k src;
  Kernel.run k;
  let d = Kernel.Meter.diff (Kernel.Meter.snapshot k) before in
  preview "terminal" (term.Dev.lines ());
  preview "report window (pushed to, fan-in)" (window.Dev.lines ());
  let tbl =
    Table.create ~title:"Figure 3 (write-only + reports)"
      ~columns:[ ("metric", Table.Left); ("value", Table.Right) ]
  in
  Table.add_rows tbl
    [
      [ "main-stream lines at terminal"; Table.cell_int (List.length (term.Dev.lines ())) ];
      [ "report lines at window"; Table.cell_int (List.length (window.Dev.lines ())) ];
      [ "invocations (total)"; Table.cell_int d.Kernel.Meter.invocations ];
      [ "Deposit invocations"; Table.cell_int d.Kernel.Meter.replies ];
    ];
  Table.print tbl

let fig4 () =
  section "F4  Figure 4: the same topology, read-only with channel identifiers";
  let k = Kernel.create () in
  let before = Kernel.Meter.snapshot k in
  let src =
    Report.source_ro k ~name:"source" ~label:"source"
      (list_gen (vstrs (doc 16 @ [ "drop this line" ])))
  in
  let f1 =
    Report.filter_ro k ~name:"F1" ~upstream:src
      (Report.with_progress ~every:4 ~label:"F1" T.Transform.identity)
  in
  let f2 = T.Stage.filter_ro k ~name:"F2" ~upstream:f1 (Cat.grep_v "drop") in
  let f3 = T.Stage.filter_ro k ~name:"F3" ~upstream:f2 Cat.upcase in
  let term = Dev.terminal_ro k ~upstream:f3 () in
  let window =
    Dev.report_window_ro k
      ~watch:[ ("source", src, T.Channel.report); ("F1", f1, T.Channel.report) ]
      ()
  in
  Kernel.poke k term.Dev.uid;
  Kernel.poke k window.Dev.uid;
  Kernel.run k;
  let d = Kernel.Meter.diff (Kernel.Meter.snapshot k) before in
  preview "terminal (Read(Output) requests)" (term.Dev.lines ());
  preview "report window (Read(ReportStream) requests)" (window.Dev.lines ());
  let tbl =
    Table.create ~title:"Figure 4 (read-only + channel identifiers)"
      ~columns:[ ("metric", Table.Left); ("value", Table.Right) ]
  in
  Table.add_rows tbl
    [
      [ "main-stream lines at terminal"; Table.cell_int (List.length (term.Dev.lines ())) ];
      [ "report lines at window"; Table.cell_int (List.length (window.Dev.lines ())) ];
      [ "invocations (total)"; Table.cell_int d.Kernel.Meter.invocations ];
    ];
  Table.print tbl

(* ------------------------------------------------------------------ *)
(* T1: the invocation-count law                                        *)
(* ------------------------------------------------------------------ *)

let table1 () =
  section "T1  Invocations per datum vs pipeline length (the paper's central claim)";
  let n_items = 64 in
  let ns = [ 1; 2; 4; 8; 16; 32 ] in
  let tbl =
    Table.create
      ~title:
        (Printf.sprintf
           "Invocations per datum over %d items (measured | paper's formula)" n_items)
      ~columns:
        [
          ("n filters", Table.Right);
          ("read-only", Table.Right);
          ("(n+1)", Table.Right);
          ("write-only", Table.Right);
          ("(n+1) ", Table.Right);
          ("conventional", Table.Right);
          ("(2n+2)", Table.Right);
          ("conv/ro", Table.Right);
        ]
  in
  List.iter
    (fun n ->
      let measure d =
        let _, m, _, _ = run_pipeline d n ~n_items in
        float_of_int m.Kernel.Meter.invocations /. float_of_int n_items
      in
      let ro = measure T.Pipeline.Read_only in
      let wo = measure T.Pipeline.Write_only in
      let cv = measure T.Pipeline.Conventional in
      Table.add_row tbl
        [
          Table.cell_int n;
          Table.cell_float ro;
          Table.cell_int (n + 1);
          Table.cell_float wo;
          Table.cell_int (n + 1);
          Table.cell_float cv;
          Table.cell_int ((2 * n) + 2);
          Table.cell_ratio (cv /. ro);
        ])
    ns;
  Table.print tbl;
  let tbl2 =
    Table.create ~title:"Entities (Ejects) per pipeline (measured = predicted exactly)"
      ~columns:
        [
          ("n filters", Table.Right);
          ("read-only", Table.Right);
          ("write-only", Table.Right);
          ("conventional", Table.Right);
          ("of which pipes", Table.Right);
        ]
  in
  List.iter
    (fun n ->
      let entities d =
        let p, _, _, _ = run_pipeline d n ~n_items:4 in
        (T.Pipeline.entity_count p, List.length p.T.Pipeline.pipes)
      in
      let ro, _ = entities T.Pipeline.Read_only in
      let wo, _ = entities T.Pipeline.Write_only in
      let cv, pipes = entities T.Pipeline.Conventional in
      Table.add_row tbl2
        [
          Table.cell_int n; Table.cell_int ro; Table.cell_int wo; Table.cell_int cv;
          Table.cell_int pipes;
        ])
    ns;
  Table.print tbl2

(* ------------------------------------------------------------------ *)
(* T2: laziness and anticipation                                       *)
(* ------------------------------------------------------------------ *)

let table2 () =
  section "T2  Laziness (no sink, no work) and anticipation (prefetch depth)";
  (* Part 1: a pipeline with no sink moves nothing. *)
  let k = Kernel.create () in
  let generated = ref 0 in
  let gen () =
    incr generated;
    Some (Value.Str "item")
  in
  let src = T.Stage.source_ro k gen in
  let _f = T.Stage.filter_ro k ~upstream:src Cat.upcase in
  Kernel.poke k src;
  Kernel.run k;
  let snap = Kernel.Meter.snapshot k in
  let tbl =
    Table.create ~title:"No sink connected: filters are pure transformers, not pumps"
      ~columns:[ ("metric", Table.Left); ("value", Table.Right) ]
  in
  Table.add_rows tbl
    [
      [ "items generated by source"; Table.cell_int !generated ];
      [ "stream invocations"; Table.cell_int snap.Kernel.Meter.invocations ];
    ];
  Table.print tbl;
  (* Part 2: anticipation vs makespan.  A filter that computes for 0.5
     per item feeds a bursty consumer (8 items back to back, then 8.0
     idle).  With capacity 0 each burst item waits for the filter; with
     capacity >= burst size, the filter works ahead during the idle gap
     and serves the burst from buffer — §4's "read some input and
     buffer-up some output ... in this way all the Ejects in a pipeline
     can run concurrently". *)
  let burst = 8 and idle = 8.0 and compute = 0.5 and n_items = 32 in
  let run_anticipation capacity =
    let k = Kernel.create ~latency:(Eden_net.Net.Fixed 1.0) () in
    let slow_filter next emit =
      let rec go () =
        match next () with
        | Some v ->
            Eden_sched.Sched.sleep compute;
            emit v;
            go ()
        | None -> ()
      in
      go ()
    in
    let consumed = ref 0 in
    let consume _ =
      incr consumed;
      if !consumed mod burst = 0 then Eden_sched.Sched.sleep idle
    in
    let p =
      T.Pipeline.build k ~capacity T.Pipeline.Read_only
        ~gen:(list_gen (vstrs (doc n_items)))
        ~filters:[ slow_filter ] ~consume
    in
    Kernel.run_driver k (fun _ -> T.Pipeline.run p);
    Eden_sched.Sched.now (Kernel.sched k)
  in
  let tbl2 =
    Table.create
      ~title:
        (Printf.sprintf
           "Anticipation: buffer k vs makespan (%d items, %.1f compute/item, bursty sink)"
           n_items compute)
      ~columns:[ ("capacity k", Table.Right); ("makespan (virtual)", Table.Right) ]
  in
  List.iter
    (fun capacity ->
      Table.add_row tbl2 [ Table.cell_int capacity; Table.cell_float (run_anticipation capacity) ])
    [ 0; 1; 2; 4; 8; 16 ];
  Table.print tbl2;
  (* Part 3: batching ablation — Transfer credit vs invocation count. *)
  let tbl3 =
    Table.create
      ~title:"Batching: items per Transfer vs invocations (32 items, 3 filters, capacity 16)"
      ~columns:
        [
          ("batch", Table.Right);
          ("invocations", Table.Right);
          ("makespan (virtual)", Table.Right);
        ]
  in
  List.iter
    (fun batch ->
      let _, d, makespan, _ =
        run_pipeline T.Pipeline.Read_only 3 ~n_items:32 ~capacity:16 ~batch
      in
      Table.add_row tbl3
        [
          Table.cell_int batch;
          Table.cell_int d.Kernel.Meter.invocations;
          Table.cell_float makespan;
        ])
    [ 1; 2; 4; 8; 16 ];
  Table.print tbl3

(* ------------------------------------------------------------------ *)
(* T3: fan-in / fan-out asymmetry                                      *)
(* ------------------------------------------------------------------ *)

let table3 () =
  section "T3  Fan-in and fan-out under each discipline (§5)";
  let tbl =
    Table.create ~title:"Each scenario moves 12 items; 'complete' = a party saw all 12"
      ~columns:
        [
          ("scenario", Table.Left);
          ("parties", Table.Right);
          ("items seen", Table.Left);
          ("verdict", Table.Left);
        ]
  in
  (* Read-only fan-in: one sink, m sources. *)
  List.iter
    (fun m ->
      let k = Kernel.create () in
      let sources =
        List.init m (fun i ->
            Dev.text_source k (List.init (12 / m) (fun j -> Printf.sprintf "s%d-%d" i j)))
      in
      let seen = ref 0 in
      Kernel.run_driver k (fun ctx ->
          List.iter
            (fun s -> T.Pull.iter (fun _ -> incr seen) (T.Pull.connect ctx s))
            sources);
      Table.add_row tbl
        [
          Printf.sprintf "read-only fan-in (m=%d sources)" m;
          Table.cell_int m;
          Printf.sprintf "%d/12 at the one sink" !seen;
          (if !seen = 12 then "works" else "BROKEN");
        ])
    [ 2; 4 ];
  (* Read-only naive fan-out: two sinks share one channel. *)
  let k = Kernel.create () in
  let src = Dev.text_source k (List.init 12 (fun i -> Printf.sprintf "x%d" i)) in
  let n1 = ref 0 and n2 = ref 0 in
  let mk n = T.Stage.sink_ro k ~upstream:src (fun _ -> incr n) in
  let s1 = mk n1 and s2 = mk n2 in
  Kernel.poke k s1;
  Kernel.poke k s2;
  Kernel.run k;
  Table.add_row tbl
    [
      "read-only naive fan-out (2 readers, 1 channel)";
      "2";
      Printf.sprintf "%d + %d (items stolen)" !n1 !n2;
      (if !n1 < 12 && !n2 < 12 then "impossible, as the paper argues" else "unexpected");
    ];
  (* Read-only fan-out via channel identifiers: source duplicates onto
     two channels. *)
  let k = Kernel.create () in
  let src =
    T.Stage.custom k ~name:"two-channel-source" (fun ctx ~passive:_ ->
        let port = T.Port.create () in
        let a = T.Port.add_channel port ~capacity:12 (T.Channel.Num 0) in
        let b = T.Port.add_channel port ~capacity:12 (T.Channel.Num 1) in
        Kernel.spawn_worker ctx (fun () ->
            for i = 0 to 11 do
              let v = Value.Str (Printf.sprintf "x%d" i) in
              T.Port.write a v;
              T.Port.write b v
            done;
            T.Port.close a;
            T.Port.close b);
        T.Port.handlers port)
  in
  let n1 = ref 0 and n2 = ref 0 in
  let s1 = T.Stage.sink_ro k ~upstream:src ~upstream_channel:(T.Channel.Num 0) (fun _ -> incr n1) in
  let s2 = T.Stage.sink_ro k ~upstream:src ~upstream_channel:(T.Channel.Num 1) (fun _ -> incr n2) in
  Kernel.poke k s1;
  Kernel.poke k s2;
  Kernel.run k;
  Table.add_row tbl
    [
      "read-only fan-out via channel ids";
      "2";
      Printf.sprintf "%d and %d" !n1 !n2;
      (if !n1 = 12 && !n2 = 12 then "works (the paper's fix)" else "BROKEN");
    ];
  (* Write-only fan-out. *)
  let k = Kernel.create () in
  let c1 = ref 0 and c2 = ref 0 in
  let k1 = T.Stage.sink_wo k (fun _ -> incr c1) in
  let k2 = T.Stage.sink_wo k (fun _ -> incr c2) in
  let src =
    T.Stage.custom k ~name:"fanout-source" (fun ctx ~passive:_ ->
        Kernel.spawn_worker ctx (fun () ->
            let p1 = T.Push.connect ctx k1 and p2 = T.Push.connect ctx k2 in
            for i = 0 to 11 do
              let v = Value.Str (string_of_int i) in
              T.Push.write p1 v;
              T.Push.write p2 v
            done;
            T.Push.close p1;
            T.Push.close p2);
        [])
  in
  Kernel.poke k src;
  Kernel.run k;
  Table.add_row tbl
    [
      "write-only fan-out (2 sinks)";
      "2";
      Printf.sprintf "%d and %d" !c1 !c2;
      (if !c1 = 12 && !c2 = 12 then "works" else "BROKEN");
    ];
  (* Write-only fan-in: two pushers into one sink merge anonymously. *)
  let k = Kernel.create () in
  let merged = ref 0 in
  let sink = T.Stage.custom k ~name:"merge-sink" (fun _ctx ~passive:_ ->
      let remaining = ref 2 in
      [
        ( T.Proto.deposit_op,
          fun arg ->
            let _, eos, items = T.Proto.parse_deposit_request arg in
            merged := !merged + List.length items;
            if eos then decr remaining;
            ignore !remaining;
            Value.Unit );
      ])
  in
  let mk_src i =
    T.Stage.source_wo k ~downstream:sink
      (list_gen (List.init 6 (fun j -> Value.Str (Printf.sprintf "s%d-%d" i j))))
  in
  let sa = mk_src 1 and sb = mk_src 2 in
  Kernel.poke k sa;
  Kernel.poke k sb;
  Kernel.run k;
  Table.add_row tbl
    [
      "write-only fan-in (2 sources, merged)";
      "2";
      Printf.sprintf "%d/12 at the one sink" !merged;
      (if !merged = 12 then "works (sources indistinguishable)" else "BROKEN");
    ];
  Table.print tbl

(* ------------------------------------------------------------------ *)
(* T4: channel identifier security                                     *)
(* ------------------------------------------------------------------ *)

let table4 () =
  section "T4  Integer vs capability channel identifiers (§5 security argument)";
  (* A source with a public stream and a private stream, under both
     naming schemes.  The adversary knows the source's UID and tries to
     read the private stream. *)
  let run_scheme ~capability =
    let k = Kernel.create () in
    let private_chan = ref T.Channel.output in
    let src =
      T.Stage.custom k ~name:"source" (fun ctx ~passive:_ ->
          let port = T.Port.create () in
          let chan =
            if capability then T.Channel.Cap (Kernel.mint ctx) else T.Channel.Num 1
          in
          private_chan := chan;
          let pub = T.Port.add_channel port ~capacity:4 (T.Channel.Num 0) in
          let priv = T.Port.add_channel port ~capacity:4 chan in
          Kernel.spawn_worker ctx (fun () ->
              T.Port.write pub (Value.Str "public data");
              T.Port.close pub;
              T.Port.write priv (Value.Str "PRIVATE data");
              T.Port.close priv);
          ( "GetPrivateChannel",
            fun _ -> T.Channel.to_value chan )
          :: T.Port.handlers port)
    in
    let setup_invocations = ref 0 in
    let breach = ref false in
    let legit_ok = ref false in
    let before = Kernel.Meter.snapshot k in
    Kernel.run_driver k (fun ctx ->
        (* Legitimate consumer: obtains the channel id through the
           sanctioned route (costs one invocation under both schemes;
           under the integer scheme it could come from documentation
           for free). *)
        let chan =
          if capability then
            T.Channel.of_value (Kernel.call ctx src ~op:"GetPrivateChannel" Value.Unit)
          else T.Channel.Num 1
        in
        setup_invocations :=
          (Kernel.Meter.snapshot k).Kernel.Meter.invocations - before.Kernel.Meter.invocations;
        let pull = T.Pull.connect ctx ~channel:chan src in
        (match T.Pull.read pull with Some _ -> legit_ok := true | None -> ());
        (* Adversary: guesses small integers (and cannot guess a UID). *)
        List.iter
          (fun g ->
            if not (T.Channel.equal g chan) || not capability then
              match
                Kernel.invoke ctx src ~op:T.Proto.transfer_op
                  (T.Proto.transfer_request g ~credit:1)
              with
              | Ok _ when T.Channel.equal g !private_chan -> breach := true
              | Ok _ | Error _ -> ())
          [ T.Channel.Num 1; T.Channel.Num 2; T.Channel.Num 3 ]);
    (!setup_invocations, !legit_ok, !breach)
  in
  let int_setup, int_ok, int_breach = run_scheme ~capability:false in
  let cap_setup, cap_ok, cap_breach = run_scheme ~capability:true in
  let tbl =
    Table.create ~title:"Channel naming schemes"
      ~columns:
        [
          ("scheme", Table.Left);
          ("setup invocations", Table.Right);
          ("legitimate read", Table.Left);
          ("forgery attempt", Table.Left);
        ]
  in
  Table.add_rows tbl
    [
      [
        "integer identifiers";
        Table.cell_int int_setup;
        (if int_ok then "ok" else "FAILED");
        (if int_breach then "SUCCEEDS (dishonest reader sees private data)" else "blocked?");
      ];
      [
        "capability identifiers";
        Table.cell_int cap_setup;
        (if cap_ok then "ok" else "FAILED");
        (if cap_breach then "BREACH" else "refused (UIDs are unforgeable)");
      ];
    ];
  Table.print tbl

(* ------------------------------------------------------------------ *)
(* T5: cost model (virtual time); wall-clock half lives in main.ml     *)
(* ------------------------------------------------------------------ *)

let table5 () =
  section "T5  Invocation vs intra-Eject communication (virtual-time cost model)";
  let k = Kernel.create ~latency:(Eden_net.Net.Fixed 1.0) ~nodes:[ "a"; "b" ] () in
  let nodes = Kernel.nodes k in
  let echo node =
    Kernel.create_eject k ~node ~type_name:"echo" (fun _ctx ~passive:_ -> [ ("Echo", Fun.id) ])
  in
  let local = echo (List.nth nodes 0) in
  let remote = echo (List.nth nodes 1) in
  let rtt target =
    let t = ref 0.0 in
    Kernel.run_driver k (fun ctx ->
        let t0 = Eden_sched.Sched.time () in
        for _ = 1 to 10 do
          ignore (Kernel.call ctx target ~op:"Echo" Value.Unit)
        done;
        t := (Eden_sched.Sched.time () -. t0) /. 10.0);
    !t
  in
  let local_rtt = rtt local in
  let remote_rtt = rtt remote in
  (* Intra-eject IPC: a worker passes 10 items through a Chan to
     another worker of the same Eject — no kernel messages at all. *)
  let ipc_time = ref 0.0 in
  let probe =
    Kernel.create_eject k ~type_name:"ipc-probe" (fun ctx ~passive:_ ->
        Kernel.spawn_worker ctx (fun () ->
            let ch = Eden_sched.Chan.create ~capacity:1 in
            let t0 = Eden_sched.Sched.time () in
            let _ = Eden_sched.Sched.spawn_inside (fun () ->
                for i = 1 to 10 do
                  Eden_sched.Chan.put ch i
                done)
            in
            for _ = 1 to 10 do
              ignore (Eden_sched.Chan.get ch)
            done;
            ipc_time := (Eden_sched.Sched.time () -. t0) /. 10.0);
        [])
  in
  Kernel.poke k probe;
  Kernel.run k;
  let tbl =
    Table.create ~title:"Virtual-time cost per interaction (link latency 1.0, local 0.1)"
      ~columns:[ ("mechanism", Table.Left); ("cost (virtual time)", Table.Right) ]
  in
  Table.add_rows tbl
    [
      [ "invocation round trip, same node"; Table.cell_float ~decimals:3 local_rtt ];
      [ "invocation round trip, across nodes"; Table.cell_float ~decimals:3 remote_rtt ];
      [ "intra-Eject channel pass (language processes)"; Table.cell_float ~decimals:3 !ipc_time ];
    ];
  Table.print tbl;
  print_endline
    "The asymmetric disciplines eliminate half the invocations by turning\n\
     buffer-to-filter hops into intra-Eject communication, whose cost is the\n\
     bottom row.";
  (* Virtual-time makespan of the three disciplines on equal work. *)
  let tbl2 =
    Table.create ~title:"Makespan moving 64 items through 4 filters (virtual time)"
      ~columns:[ ("discipline", Table.Left); ("makespan", Table.Right); ("invocations", Table.Right) ]
  in
  List.iter
    (fun d ->
      let _, m, makespan, _ = run_pipeline d 4 ~n_items:64 ~capacity:8 in
      Table.add_row tbl2
        [
          T.Pipeline.discipline_name d;
          Table.cell_float makespan;
          Table.cell_int m.Kernel.Meter.invocations;
        ])
    T.Pipeline.all_disciplines;
  Table.print tbl2

(* ------------------------------------------------------------------ *)
(* T6: the §7 bootstrap                                                *)
(* ------------------------------------------------------------------ *)

let table6 () =
  section "T6  Bootstrap transput: NewStream / UseStream over the Unix file system";
  let k = Kernel.create () in
  let fs = Fs.create () in
  let fse = Fse.create k fs in
  let input = doc 64 in
  Fs.write_file fs "/src.txt" (Eden_util.Text.join_lines input);
  let before = Kernel.Meter.snapshot k in
  Kernel.run_driver k (fun ctx ->
      Fse.copy_through ctx ~fs:fse ~src:"/src.txt" ~dst:"/dst.txt" [ Cat.upcase ]);
  let d = Kernel.Meter.diff (Kernel.Meter.snapshot k) before in
  let out = Fs.read_file fs "/dst.txt" in
  let expected =
    Eden_util.Text.join_lines (List.map String.uppercase_ascii input)
  in
  let tbl =
    Table.create ~title:"64-line file copied through an upcase filter Eject"
      ~columns:[ ("metric", Table.Left); ("value", Table.Right) ]
  in
  Table.add_rows tbl
    [
      [ "output identical to expectation"; (if out = expected then "yes" else "NO") ];
      [ "bytes written"; Table.cell_int (String.length out) ];
      [ "invocations (incl. NewStream/UseStream/Await)"; Table.cell_int d.Kernel.Meter.invocations ];
      [
        "invocations per line";
        Table.cell_float (float_of_int d.Kernel.Meter.invocations /. 64.0);
      ];
    ];
  Table.print tbl;
  let ops = Kernel.op_counts k in
  let tbl2 =
    Table.create ~title:"Invocations by operation" ~columns:[ ("op", Table.Left); ("count", Table.Right) ]
  in
  List.iter (fun (op, n) -> Table.add_row tbl2 [ op; Table.cell_int n ]) ops;
  Table.print tbl2

(* ------------------------------------------------------------------ *)
(* A0: placement ablation                                              *)
(* ------------------------------------------------------------------ *)

let ablation () =
  section "A0  Placement ablation: distributing stages across machines";
  print_endline
    "The paper argues invocation cost dominates (location-independent\n\
     invocation is pricier than a system call), so halving invocations\n\
     halves the wire time.  Spread the pipeline over m machines and watch\n\
     the conventional discipline pay double at every scale.";
  let n_items = 32 and n_filters = 3 in
  let tbl =
    Table.create
      ~title:
        (Printf.sprintf "Makespan (virtual), %d items, %d filters, link 1.0 / local 0.1"
           n_items n_filters)
      ~columns:
        [
          ("machines", Table.Right);
          ("read-only", Table.Right);
          ("write-only", Table.Right);
          ("conventional", Table.Right);
          ("conv/ro", Table.Right);
        ]
  in
  List.iter
    (fun machines ->
      let measure discipline =
        let k =
          Kernel.create
            ~latency:(Eden_net.Net.Fixed 1.0)
            ~nodes:(List.init machines (fun i -> Printf.sprintf "m%d" i))
            ()
        in
        let p =
          T.Pipeline.build k ~nodes:(Kernel.nodes k) ~capacity:4 discipline
            ~gen:(list_gen (vstrs (doc n_items)))
            ~filters:(List.init n_filters (fun _ -> Cat.trim_trailing))
            ~consume:ignore
        in
        Kernel.run_driver k (fun _ -> T.Pipeline.run p);
        Eden_sched.Sched.now (Kernel.sched k)
      in
      let ro = measure T.Pipeline.Read_only in
      let wo = measure T.Pipeline.Write_only in
      let cv = measure T.Pipeline.Conventional in
      Table.add_row tbl
        [
          Table.cell_int machines;
          Table.cell_float ro;
          Table.cell_float wo;
          Table.cell_float cv;
          Table.cell_ratio (cv /. ro);
        ])
    [ 1; 2; 3; 5 ];
  Table.print tbl;
  print_endline
    "Note the m=3 row: round-robin placement happens to co-locate every\n\
     pipe with the filter that reads it — the moral equivalent of Unix\n\
     keeping the pipe buffer inside an endpoint's kernel — and the gap\n\
     nearly closes.  The paper's factor-of-two applies when buffers are\n\
     genuinely interposed entities; clever placement is the conventional\n\
     world's only defence, and it cannot help the entity count."

(* ------------------------------------------------------------------ *)
(* R1: resilience chaos sweep                                          *)
(* ------------------------------------------------------------------ *)

module Net = Eden_net.Net
module Sched = Eden_sched.Sched
module Rs = T.Resumable
module Retry = Eden_resil.Retry
module Backoff = Eden_resil.Backoff
module Supervisor = Eden_resil.Supervisor

let r1 () =
  section "R1  Resilience: supervised resumable pipelines under loss and crashes";
  print_endline
    "A read-only 3-filter pipeline built from resumable stages: seq-stamped\n\
     Transfers, per-stage checkpoints, retried invocations, and a\n\
     supervisor reactivating crashed stages.  Each cell runs several\n\
     seeds; 'completed' counts runs that finished before the deadline\n\
     WITH output identical to the fault-free run.  Makespan is virtual\n\
     time at sink completion, averaged over completed runs.";
  let n_items = 48 and batch = 4 and deadline = 5000.0 in
  let gen i = if i < n_items then Some (Value.Int i) else None in
  let filters =
    [
      Rs.pure_map (fun v -> Value.Int (Value.to_int v + 1));
      Rs.pure_filter (fun v -> Value.to_int v mod 3 <> 0);
      Rs.pure_map (fun v -> Value.Int (Value.to_int v * 2));
    ]
  in
  let expected =
    List.init n_items (fun i -> i + 1)
    |> List.filter (fun x -> x mod 3 <> 0)
    |> List.map (fun x -> Value.Int (x * 2))
  in
  let seeds = [ 1L; 2L; 3L ] in
  (* One chaos run; [crashes] picks (stage, time) pairs off the built
     pipeline, with crash times scaled to [ref_makespan] so they land
     mid-stream at every loss level. *)
  let run_cell ~loss ~seed ~crashes =
    (* Stages are spread over three nodes: same-node messages are exempt
       from simulated loss, so a single-node pipeline would never drop
       anything. *)
    let k = Kernel.create ~seed ~nodes:[ "a"; "b"; "c" ] () in
    Net.set_loss_probability (Kernel.net k) loss;
    let policy =
      Retry.policy ~timeout:15.0 ~max_attempts:40
        ~backoff:(Backoff.make ~base:2.0 ~cap:20.0 ())
        ()
    in
    let p =
      T.Pipeline.resumable k ~nodes:(Kernel.nodes k) ~batch ~policy ~seed:(Int64.add seed 7L)
        T.Pipeline.Read_only ~gen ~filters
    in
    let sup = Supervisor.create k ~policy:(Supervisor.policy ~interval:5.0 ()) () in
    T.Pipeline.supervise p sup;
    Supervisor.start sup;
    List.iter (fun (u, at) -> T.Pipeline.crash_at p u at) (crashes p);
    let makespan = ref Float.infinity and completed = ref false in
    Kernel.run_driver k (fun _ctx ->
        T.Pipeline.start p;
        completed := T.Pipeline.await_timeout p ~deadline;
        makespan := Sched.now (Kernel.sched k);
        Supervisor.stop sup);
    let ok = !completed && T.Pipeline.output p = Some expected in
    ( ok,
      !makespan,
      p.T.Pipeline.meter,
      (Kernel.Meter.snapshot k).Kernel.Meter.invocations,
      Supervisor.restarts sup )
  in
  let schedules ref_makespan =
    let frac f = ref_makespan *. f in
    [
      ("none", fun _ -> []);
      ( "filter-2 mid-stream",
        fun p -> [ (List.assoc "filter-2" p.T.Pipeline.stages, frac 0.4) ] );
      ("sink pump", fun p -> [ (List.assoc "sink" p.T.Pipeline.stages, frac 0.4) ]);
      ( "storm (3 stages)",
        fun p ->
          [
            (List.assoc "filter-1" p.T.Pipeline.stages, frac 0.25);
            (List.assoc "sink" p.T.Pipeline.stages, frac 0.45);
            (List.assoc "filter-3" p.T.Pipeline.stages, frac 0.65);
          ] );
    ]
  in
  let tbl =
    Table.create
      ~title:
        (Printf.sprintf
           "Chaos sweep: %d items, 3 filters, batch %d, %d seeds per cell" n_items batch
           (List.length seeds))
      ~columns:
        [
          ("loss", Table.Right);
          ("crash schedule", Table.Left);
          ("completed", Table.Right);
          ("makespan", Table.Right);
          ("overhead", Table.Right);
          ("retries", Table.Right);
          ("timeouts", Table.Right);
          ("restarts", Table.Right);
          ("invocations", Table.Right);
        ]
  in
  let baseline = ref None in
  List.iter
    (fun loss ->
      (* Reference makespan for this loss level: the no-crash cell, first
         seed.  Crash times are fractions of it. *)
      let _, ref_makespan, _, _, _ = run_cell ~loss ~seed:(List.hd seeds) ~crashes:(fun _ -> []) in
      List.iter
        (fun (label, crashes) ->
          let runs = List.map (fun seed -> run_cell ~loss ~seed ~crashes) seeds in
          let ok = List.filter (fun (c, _, _, _, _) -> c) runs in
          let avg f = match ok with
            | [] -> Float.nan
            | _ -> List.fold_left (fun a r -> a +. f r) 0.0 ok /. float_of_int (List.length ok)
          in
          let makespan = avg (fun (_, m, _, _, _) -> m) in
          let retries = avg (fun (_, _, m, _, _) -> float_of_int m.Retry.retries) in
          let timeouts = avg (fun (_, _, m, _, _) -> float_of_int m.Retry.timeouts) in
          let invocations = avg (fun (_, _, _, i, _) -> float_of_int i) in
          let restarts = avg (fun (_, _, _, _, r) -> float_of_int r) in
          if loss = 0.0 && label = "none" then baseline := Some makespan;
          let overhead =
            match !baseline with
            | Some b when Float.is_finite makespan -> Printf.sprintf "%.2fx" (makespan /. b)
            | _ -> "-"
          in
          Table.add_row tbl
            [
              Printf.sprintf "%.0f%%" (loss *. 100.0);
              label;
              Printf.sprintf "%d/%d" (List.length ok) (List.length runs);
              (if Float.is_finite makespan then Table.cell_float makespan else "-");
              overhead;
              Table.cell_float ~decimals:1 retries;
              Table.cell_float ~decimals:1 timeouts;
              Table.cell_float ~decimals:1 restarts;
              Table.cell_float ~decimals:0 invocations;
            ])
        (schedules ref_makespan))
    [ 0.0; 0.1; 0.3 ];
  Table.print tbl;
  (* The contrast row: the plain (non-resilient) pipeline under the same
     faults neither retries nor restarts — it stalls. *)
  let plain ~loss ~crash =
    let k = Kernel.create ~seed:1L ~nodes:[ "a"; "b"; "c" ] () in
    Net.set_loss_probability (Kernel.net k) loss;
    let consumed = ref 0 in
    let p =
      T.Pipeline.build k ~nodes:(Kernel.nodes k) ~batch T.Pipeline.Read_only
        ~gen:(list_gen (List.init n_items (fun i -> Value.Int i)))
        ~filters:(List.init 3 (fun _ -> T.Transform.identity))
        ~consume:(fun _ -> incr consumed)
    in
    (* Mid-stream: the fault-free multi-node run takes ~56 virtual
       seconds, so t=20 lands with items buffered in the filter. *)
    if crash then
      Sched.timer (Kernel.sched k) 20.0 (fun () -> Kernel.crash k (List.hd p.T.Pipeline.filters));
    T.Pipeline.start p;
    Sched.run (Kernel.sched k);
    let done_ = !consumed = n_items in
    let stalls =
      match T.Pipeline.diagnose p with Some d -> List.length d.T.Pipeline.stalls | None -> 0
    in
    (done_, !consumed, stalls)
  in
  let tbl2 =
    Table.create ~title:"Contrast: the plain pipeline under the same faults"
      ~columns:
        [
          ("scenario", Table.Left);
          ("completed", Table.Left);
          ("items through", Table.Right);
          ("blocked fibers at stall", Table.Right);
        ]
  in
  List.iter
    (fun (label, loss, crash) ->
      let done_, seen, stalls = plain ~loss ~crash in
      let verdict =
        if done_ then "yes"
        else if stalls > 0 then "NO (wedged)"
        else "NO (data lost silently)"
      in
      Table.add_row tbl2
        [ label; verdict; Table.cell_int seen; (if done_ then "-" else Table.cell_int stalls) ])
    [
      ("fault-free", 0.0, false);
      ("10% loss", 0.1, false);
      ("crash filter-1 at t=20", 0.0, true);
    ];
  Table.print tbl2;
  print_endline
    "The plain pipeline fails both ways: loss wedges it (no retries), and a\n\
     crashed stateless filter drops its in-flight buffer — the stream ends\n\
     but items are missing.  The resilient pipeline completes every cell\n\
     with output identical to the fault-free run; its makespan overhead is\n\
     the price of the retry timeouts that double as crash detection."

(* ------------------------------------------------------------------ *)
(* S0: observability smoke (also the CI artifact generator)            *)
(* ------------------------------------------------------------------ *)

let smoke () =
  section "S0  Smoke: observability end-to-end (spans, histograms, exports)";
  print_endline
    "The Figure-2 read-only pipeline with spans enabled, run under a root\n\
     user span.  Checks the span tree mirrors the invocation meter, then\n\
     exports the tree as JSONL and Chrome trace_event JSON to _trace/.";
  let n_filters = 3 and n_items = 64 in
  let k = Kernel.create ~latency:(Eden_net.Net.Fixed 1.0) () in
  let obs = Kernel.obs k in
  Obs.enable_spans obs;
  let consumed = ref 0 in
  let before = Kernel.Meter.snapshot k in
  let p =
    T.Pipeline.build k T.Pipeline.Read_only
      ~gen:(list_gen (vstrs (doc n_items)))
      ~filters:(List.init n_filters (fun _ -> Cat.trim_trailing))
      ~consume:(fun _ -> incr consumed)
  in
  Kernel.run_driver k (fun ctx ->
      Kernel.with_span ctx ~name:"smoke-pipeline" (fun () -> T.Pipeline.run p));
  let d = Kernel.Meter.diff (Kernel.Meter.snapshot k) before in
  let spans = Obs.spans obs @ Obs.open_spans obs in
  let invoke_spans = List.filter (fun s -> s.Obs.Span.cat = "invoke") spans in
  let parented = List.filter (fun s -> s.Obs.Span.parent <> None) invoke_spans in
  let pred = T.Pipeline.predict T.Pipeline.Read_only ~n_filters in
  (* Each of the n+1 hops issues one Transfer per datum plus one that
     returns end of stream. *)
  let predicted_total = pred.T.Pipeline.invocations_per_datum * (n_items + 1) in
  let dir = "_trace" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let jsonl_path = Filename.concat dir "smoke.trace.jsonl" in
  let chrome_path = Filename.concat dir "smoke.chrome.json" in
  Obs.Export.to_file ~path:jsonl_path (Obs.Export.spans_jsonl obs);
  Obs.Export.to_file ~path:chrome_path (Obs.Export.chrome_trace obs);
  let ok_items = !consumed = n_items in
  let ok_spans = List.length invoke_spans = d.Kernel.Meter.invocations in
  let ok_tree = List.length parented = List.length invoke_spans in
  let ok_pred = d.Kernel.Meter.invocations = predicted_total in
  let verdict b = if b then "ok" else "BROKEN" in
  let tbl =
    Table.create ~title:"Span tree vs invocation meter vs paper's formula"
      ~columns:[ ("check", Table.Left); ("value", Table.Right); ("verdict", Table.Left) ]
  in
  Table.add_rows tbl
    [
      [ "data items end to end"; Table.cell_int !consumed; verdict ok_items ];
      [ "invocations (meter)"; Table.cell_int d.Kernel.Meter.invocations; "-" ];
      [ "invoke spans recorded"; Table.cell_int (List.length invoke_spans); verdict ok_spans ];
      [ "invoke spans with a parent"; Table.cell_int (List.length parented); verdict ok_tree ];
      [ "predicted (n+1)(items+1)"; Table.cell_int predicted_total; verdict ok_pred ];
      [ "spans evicted from ring"; Table.cell_int (Obs.dropped_spans obs); verdict (Obs.dropped_spans obs = 0) ];
    ];
  Table.print tbl;
  histogram_table k;
  flow_table p.T.Pipeline.flows;
  Printf.printf "wrote %s (%d spans) and %s\n" jsonl_path (List.length spans) chrome_path;
  if not (ok_items && ok_spans && ok_tree && ok_pred) then begin
    print_endline "smoke: FAILED";
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* P1: parallel runtime scaling                                        *)
(* ------------------------------------------------------------------ *)

module Par = Eden_par

let p1 () =
  section "P1  Parallel runtime: wide fan-in wall-clock scaling across domains";
  let spec = Par.Topo.default in
  Printf.printf
    "Fan-in of %d read-only branches (%d work filters each, %d items/branch,\n\
     %d LCG rounds per item per filter).  Producing stages shard over domains\n\
     1..n-1; every sink lives on domain 0 and pulls through a cross-domain\n\
     proxy.  The deterministic mode at the same shard count is the oracle:\n\
     the parallel run must reproduce its invocation counts exactly.\n\n"
    spec.Par.Topo.branches spec.Par.Topo.filters spec.Par.Topo.items spec.Par.Topo.work;
  let cores = Domain.recommended_domain_count () in
  Printf.printf "host cores available: %d\n" cores;
  if cores < 4 then
    print_endline
      "WARNING: fewer than 4 cores — wall-clock speedup beyond 1 domain is\n\
       not physically possible on this host; the correctness cross-checks\n\
       below still hold.";
  print_newline ();
  let timed_parallel domains =
    (* Best of 3: domain spawn/join noise dominates small runs. *)
    let best = ref infinity and out = ref None in
    for _ = 1 to 3 do
      let t0 = Unix.gettimeofday () in
      let o = Par.Topo.run Parallel ~domains (Par.Topo.fanin ~domains spec) in
      let dt = Unix.gettimeofday () -. t0 in
      if dt < !best then best := dt;
      out := Some o
    done;
    (Option.get !out, !best)
  in
  let tbl =
    Table.create ~title:"Wall-clock scaling (best of 3) vs deterministic oracle"
      ~columns:
        [
          ("domains", Table.Right);
          ("wall s", Table.Right);
          ("speedup", Table.Right);
          ("invocations (par)", Table.Right);
          ("invocations (det)", Table.Right);
          ("counts match", Table.Right);
          ("cross msgs", Table.Right);
        ]
  in
  let base = ref 0.0 in
  let all_match = ref true in
  let last = ref None in
  List.iter
    (fun domains ->
      let par, wall = timed_parallel domains in
      let det = Par.Topo.run Deterministic ~domains (Par.Topo.fanin ~domains spec) in
      if domains = 1 then base := wall;
      let ok =
        par.meter.Kernel.Meter.invocations = det.meter.Kernel.Meter.invocations
        && par.op_counts = det.op_counts
        && Par.Topo.consumed par = Par.Topo.consumed det
        && par.eos_clean && det.eos_clean
      in
      if not ok then all_match := false;
      if domains > 1 then last := Some par;
      Table.add_row tbl
        [
          Table.cell_int domains;
          Printf.sprintf "%.3f" wall;
          Printf.sprintf "%.2fx" (!base /. wall);
          Table.cell_int par.meter.Kernel.Meter.invocations;
          Table.cell_int det.meter.Kernel.Meter.invocations;
          (if ok then "yes" else "NO");
          Table.cell_int par.cross_messages;
        ])
    [ 1; 2; 4; 8 ];
  Table.print tbl;
  (match !last with
  | Some o ->
      let mtbl =
        Table.create ~title:"Histograms merged across shards (Histogram.merge)"
          ~columns:
            [
              ("histogram", Table.Left);
              ("samples", Table.Right);
              ("mean", Table.Right);
              ("p99", Table.Right);
            ]
      in
      List.iter
        (fun (name, h) ->
          if name = "net.delay" || String.length name >= 4 && String.sub name 0 4 = "rtt." then
            Table.add_row mtbl
              [
                name;
                Table.cell_int (Obs.Histogram.count h);
                Table.cell_float (Obs.Histogram.mean h);
                Table.cell_float (Obs.Histogram.percentile h 0.99);
              ])
        o.Par.Topo.histograms;
      Table.print mtbl
  | None -> ());
  if not !all_match then begin
    print_endline "p1: FAILED (parallel counts diverge from deterministic oracle)";
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* B1: flow control and adaptive batching                              *)
(* ------------------------------------------------------------------ *)

module Fc = Eden_flowctl.Flowctl
module Fcredit = Eden_flowctl.Credit

let b1 ?(quick = false) () =
  section "B1  Flow control: credit windows and adaptive batching on the hot path";
  print_endline
    "The Figure-2 read-only pipeline under every combination of batch size\n\
     (items per Transfer) and credit window (outstanding exchanges).  batch=1,\n\
     credit=1 is the paper's rendezvous regime and the baseline; 'adaptive'\n\
     sizes batches with the AIMD controller.  Throughput is items per unit of\n\
     virtual time; the equivalence property (test suite) guarantees every\n\
     cell produces bit-identical output.";
  let n_items = if quick then 32 else 512 in
  let n_filters = 3 in
  let run_f2 flowctl =
    let k = Kernel.create ~latency:(Eden_net.Net.Fixed 1.0) () in
    let consumed = ref 0 in
    let before = Kernel.Meter.snapshot k in
    let p =
      T.Pipeline.build k ~capacity:16 ?flowctl T.Pipeline.Read_only
        ~gen:(list_gen (List.init n_items (fun i -> Value.Int i)))
        ~filters:(List.init n_filters (fun _ -> T.Transform.identity))
        ~consume:(fun _ -> incr consumed)
    in
    Kernel.run_driver k (fun _ -> T.Pipeline.run p);
    let d = Kernel.Meter.diff (Kernel.Meter.snapshot k) before in
    let makespan = Sched.now (Kernel.sched k) in
    (k, d.Kernel.Meter.invocations, makespan, !consumed)
  in
  let batches =
    [ ("1", `Fixed 1); ("8", `Fixed 8); ("64", `Fixed 64); ("adaptive", `Adaptive) ]
  in
  let credits =
    [ ("1", Fcredit.Window 1); ("16", Fcredit.Window 16); ("inf", Fcredit.Unlimited) ]
  in
  let flowctl_of b credit =
    match b with `Fixed n -> Fc.fixed ~credit n | `Adaptive -> Fc.adaptive ~credit ()
  in
  let tbl =
    Table.create
      ~title:
        (Printf.sprintf
           "F2 pipeline (%d items, %d filters, capacity 16, link latency 1.0)" n_items
           n_filters)
      ~columns:
        [
          ("batch", Table.Right);
          ("credit", Table.Right);
          ("invocations", Table.Right);
          ("inv/item", Table.Right);
          ("makespan", Table.Right);
          ("items/vtime", Table.Right);
          ("speedup", Table.Right);
        ]
  in
  let baseline = ref 0.0 in
  let speedup_64 = ref 0.0 in
  let inv_item_1 = ref 0.0 and inv_item_64 = ref 0.0 in
  let adaptive_kernel = ref None in
  List.iter
    (fun (blabel, b) ->
      List.iter
        (fun (clabel, credit) ->
          let k, invocations, makespan, consumed = run_f2 (Some (flowctl_of b credit)) in
          if consumed <> n_items then begin
            Printf.printf "b1: FAILED (batch=%s credit=%s consumed %d/%d)\n" blabel clabel
              consumed n_items;
            exit 1
          end;
          let inv_item = float_of_int invocations /. float_of_int n_items in
          let throughput = float_of_int consumed /. makespan in
          if blabel = "1" && clabel = "1" then begin
            baseline := throughput;
            inv_item_1 := inv_item
          end;
          if blabel = "64" && clabel = "16" then begin
            speedup_64 := throughput /. !baseline;
            inv_item_64 := inv_item
          end;
          if blabel = "adaptive" && clabel = "inf" then adaptive_kernel := Some k;
          Table.add_row tbl
            [
              blabel;
              clabel;
              Table.cell_int invocations;
              Table.cell_float ~decimals:2 inv_item;
              Table.cell_float ~decimals:1 makespan;
              Table.cell_float ~decimals:3 throughput;
              Printf.sprintf "%.2fx" (throughput /. !baseline);
            ])
        credits)
    batches;
  Table.print tbl;
  (match !adaptive_kernel with
  | Some k ->
      histogram_table ~title:"Round-trip histograms, adaptive batch x unlimited credit" k
  | None -> ());
  (* The fan-in workload under the same configurations.  Deterministic
     mode: adaptive trajectories depend on scheduling, so the oracle
     mode is the one where they are reproducible. *)
  let fanin_spec fc =
    {
      Par.Topo.default with
      Par.Topo.items = (if quick then 8 else 64);
      work = (if quick then 200 else 20_000);
      flowctl = fc;
    }
  in
  let tbl2 =
    Table.create
      ~title:
        (Printf.sprintf
           "Fanin workload, deterministic mode, 2 shards (%d branches x %d items)"
           Par.Topo.default.Par.Topo.branches (fanin_spec None).Par.Topo.items)
      ~columns:
        [
          ("batch", Table.Right);
          ("credit", Table.Right);
          ("consumed", Table.Right);
          ("invocations", Table.Right);
          ("inv/item", Table.Right);
          ("cross msgs", Table.Right);
          ("eos", Table.Left);
        ]
  in
  List.iter
    (fun (blabel, b) ->
      let credit = Fcredit.Window 16 in
      let spec = fanin_spec (Some (flowctl_of b credit)) in
      let o = Par.Topo.run Deterministic ~domains:2 (Par.Topo.fanin ~domains:2 spec) in
      let items = spec.Par.Topo.branches * spec.Par.Topo.items in
      Table.add_row tbl2
        [
          blabel;
          "16";
          Table.cell_int (Par.Topo.consumed o);
          Table.cell_int o.meter.Kernel.Meter.invocations;
          Table.cell_float ~decimals:2
            (float_of_int o.meter.Kernel.Meter.invocations /. float_of_int items);
          Table.cell_int o.cross_messages;
          (if o.eos_clean then "clean" else "BROKEN");
        ])
    batches;
  Table.print tbl2;
  Printf.printf
    "batch=64 vs batch=1 at credit=16: %.2fx items/vtime (inv/item %.2f -> %.2f)\n"
    !speedup_64 !inv_item_1 !inv_item_64;
  if !speedup_64 < 2.0 then begin
    print_endline "b1: FAILED (batch=64 did not reach 2x the rendezvous throughput)";
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* C1: schedule exploration                                            *)
(* ------------------------------------------------------------------ *)

module Check = Eden_check.Check
module Cpolicy = Eden_check.Policy
module Ctrace = Eden_check.Trace
module Workloads = Eden_check.Workloads

(* How many schedules each policy needs to expose each seeded mutant,
   and how small the minimized replay comes out.  Every mutant passes
   plain FIFO — the explorer's entire value is the gap between the
   "fifo" row (0 found) and the others (3/3 within budget). *)
let c1 ?(budget = 100) () =
  section "C1  Schedule exploration: schedules-to-bug per policy, minimized replay size";
  let seed = Check.default_seed () in
  let policies = Cpolicy.Fifo :: Cpolicy.quick_matrix in
  let tbl =
    Table.create
      ~title:
        (Printf.sprintf "budget=%d schedules per (policy, mutant), seed=0x%Lx" budget seed)
      ~columns:
        [
          ("policy", Table.Left);
          ("mutant", Table.Left);
          ("found", Table.Left);
          ("schedules", Table.Right);
          ("shrink runs", Table.Right);
          ("minimized picks", Table.Right);
        ]
  in
  let missed = ref [] in
  List.iter
    (fun policy ->
      List.iter
        (fun (mname, workload) ->
          let name = Printf.sprintf "c1.%s.%s" (Cpolicy.to_string policy) mname in
          let prop = workload ~mutant:true in
          match Check.explore ~budget ~policy ~seed ~name prop with
          | Check.Failed f ->
              Table.add_row tbl
                [
                  Cpolicy.to_string policy;
                  mname;
                  "yes";
                  Table.cell_int f.Check.schedule;
                  Table.cell_int f.Check.shrink_runs;
                  Table.cell_int (Ctrace.nonzero_picks f.Check.trace);
                ]
          | Check.Passed { schedules } ->
              if policy <> Cpolicy.Fifo then missed := (policy, mname) :: !missed;
              Table.add_row tbl
                [
                  Cpolicy.to_string policy;
                  mname;
                  (if policy = Cpolicy.Fifo then "no (expected)" else "NO");
                  Table.cell_int schedules;
                  "-";
                  "-";
                ])
        Workloads.mutants)
    policies;
  Table.print tbl;
  let total = List.length Cpolicy.quick_matrix * List.length Workloads.mutants in
  Printf.printf "mutation score: %d/%d across %d exploring policies\n" (total - List.length !missed)
    total
    (List.length Cpolicy.quick_matrix);
  if !missed <> [] then begin
    List.iter
      (fun (p, m) -> Printf.printf "c1: MISSED %s under %s\n" m (Cpolicy.to_string p))
      (List.rev !missed);
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* E1: elastic stage vs fixed fleets                                   *)
(* ------------------------------------------------------------------ *)

module Elastic = Eden_elastic.Elastic
module Prng = Eden_util.Prng
module Aimd = Eden_flowctl.Aimd

(* A bursty open-loop workload against one keyed stage: short bursts at
   1000x the idle arrival rate, a trickle item mid-gap so scale-to-zero
   pays its cold-start cost on camera.  Fixed fleets pin the controller
   clamp (min = max = N); the elastic row lets it breathe from a floor
   of zero.  Latency is stamped at arrival (producer side), measured at
   the sink turnstile, so queueing during scale-up is charged to the
   configuration that caused it. *)
let e1 ?(quick = false) () =
  section "E1  Elastic stage: fixed fleets vs autoscaling under bursty load";
  let nchan = 24 in
  let cost = 0.25 in
  let bursts = if quick then 2 else 6 in
  let burst_m = if quick then 24 else 48 in
  let spacing = 0.02 (* peak: one item per 0.02 vtime *)
  and gap = 20.0 (* idle: one trickle item per 20.0 -- 1000:1 *) in
  let max_n = 16 in
  let spec =
    {
      Elastic.init = Value.Int 0;
      step =
        (fun st v ->
          Sched.sleep cost;
          let s = Value.to_int st + Value.to_int v in
          (Value.Int s, [ Value.Int s ]));
    }
  in
  let classify v = Value.to_int v mod nchan in
  Printf.printf
    "%d bursts of %d items (spacing %.2f) + 1 trickle item per %.0f idle gap;\n\
     %d channels, %.2f vtime service cost per item, fleet ceiling %d.\n\n"
    bursts burst_m spacing gap nchan cost max_n;
  let run ctrl =
    let k = Kernel.create ~seed:11L () in
    let sched = Kernel.sched k in
    let sendq = Array.init nchan (fun _ -> Queue.create ()) in
    let h = Obs.Histogram.create ~lo:0.05 ~growth:1.25 () in
    let e =
      Elastic.create k ~classify ~spec
        ~on_output:(fun chan _ ->
          let t0 = Queue.pop sendq.(chan) in
          Obs.Histogram.add h (Sched.now sched -. t0))
        (Elastic.params ~tick:0.25 ~checkpoint_every:4 ~capacity_per_replica:4 ~ctrl ())
    in
    Elastic.start e;
    let total = ref 0 in
    Kernel.run_driver k (fun ctx ->
        let push =
          T.Push.connect ctx ~batch:8 ~retry:(Retry.client 99L) (Elastic.router e)
        in
        let i = ref 0 in
        let send () =
          Queue.push (Sched.now sched) sendq.(!i mod nchan);
          T.Push.write push (Value.Int !i);
          incr i
        in
        for _ = 1 to bursts do
          for _ = 1 to burst_m do
            send ();
            Sched.sleep spacing
          done;
          T.Push.flush push;
          Sched.sleep (gap /. 2.0);
          send ();
          T.Push.flush push;
          Sched.sleep (gap /. 2.0)
        done;
        total := !i;
        T.Push.close push;
        Elastic.await e);
    let makespan = Sched.now sched in
    if List.length (Elastic.outputs e |> List.concat_map snd) <> !total then begin
      Printf.printf "e1: FAILED (lost items: %d expected)\n" !total;
      exit 1
    end;
    if Elastic.violations e <> [] then begin
      List.iter (Printf.printf "e1: violation: %s\n") (Elastic.violations e);
      exit 1
    end;
    ( float_of_int !total /. makespan,
      Obs.Histogram.percentile h 0.5,
      Obs.Histogram.percentile h 0.99,
      Obs.Histogram.max_value h,
      Elastic.replica_seconds e,
      Elastic.max_live e,
      Elastic.replicas_spawned e )
  in
  let fixed n =
    Aimd.params ~min_batch:n ~max_batch:n ~increase:1 ~decrease:0.5 ~low_watermark:0.25
      ~high_watermark:0.75 ()
  in
  (* Scale-from-zero must jump, not creep: channels are sticky, so the
     width the fleet has when a burst's channels first land is the width
     that serves the burst.  increase = ceiling makes the first reaction
     tick provision the whole fleet; idle halves it back to zero. *)
  let elastic_ctrl =
    Aimd.params ~min_batch:0 ~max_batch:max_n ~increase:max_n ~decrease:0.5
      ~low_watermark:0.2 ~high_watermark:0.6 ()
  in
  let configs =
    List.map (fun n -> (Printf.sprintf "fixed %d" n, fixed n)) [ 1; 4; 16 ]
    @ [ ("elastic 0..16", elastic_ctrl) ]
  in
  let tbl =
    Table.create ~title:"Latency vs provisioning cost (virtual time)"
      ~columns:
        [
          ("fleet", Table.Left);
          ("items/vtime", Table.Right);
          ("p50 lat", Table.Right);
          ("p99 lat", Table.Right);
          ("max lat", Table.Right);
          ("replica-secs", Table.Right);
          ("max live", Table.Right);
          ("spawned", Table.Right);
        ]
  in
  let results =
    List.map
      (fun (label, ctrl) ->
        let (tput, p50, p99, mx, rs, live, spawned) as r = run ctrl in
        Table.add_row tbl
          [
            label;
            Table.cell_float ~decimals:3 tput;
            Table.cell_float ~decimals:2 p50;
            Table.cell_float ~decimals:2 p99;
            Table.cell_float ~decimals:2 mx;
            Table.cell_float ~decimals:1 rs;
            Table.cell_int live;
            Table.cell_int spawned;
          ];
        (label, r))
      configs
  in
  Table.print tbl;
  (* Acceptance: the elastic fleet must be both nearly as fast as the
     best fixed fleet (p99 within 2x) and far cheaper (at most half the
     replica-seconds of that best-p99 fixed fleet). *)
  let fixed_rows = List.filter (fun (l, _) -> l <> "elastic 0..16") results in
  let _, (_, _, best_p99, _, best_rs, _, _) =
    List.fold_left
      (fun (bl, (bt, b50, b99, bm, brs, bl_, bs)) (l, ((_, _, p99, _, _, _, _) as r)) ->
        if p99 < b99 then (l, r) else (bl, (bt, b50, b99, bm, brs, bl_, bs)))
      (List.hd fixed_rows) (List.tl fixed_rows)
  in
  let _, (_, _, el_p99, _, el_rs, _, _) =
    List.find (fun (l, _) -> l = "elastic 0..16") results
  in
  Printf.printf
    "elastic p99 %.2f vs best fixed %.2f (%.2fx); replica-seconds %.1f vs %.1f (%.2fx)\n"
    el_p99 best_p99 (el_p99 /. best_p99) el_rs best_rs (el_rs /. best_rs);
  if (not quick) && not (el_p99 <= 2.0 *. best_p99 && el_rs <= 0.5 *. best_rs) then begin
    print_endline "e1: FAILED (elastic outside the p99<=2x / cost<=0.5x envelope)";
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* W1: wire transport throughput                                       *)
(* ------------------------------------------------------------------ *)

let w1 ?(quick = false) () =
  section "W1  Wire transport: throughput per transport (wall clock)";
  let domains = 3 in
  let wire tr =
    Par.Cluster.Wire { Par.Cluster.wire_transport = tr; wire_faults = None; wire_auth = None }
  in
  let modes =
    [
      ("in-process", Par.Cluster.Deterministic);
      ("unix socket", wire Eden_wire.Transport.Unix_socket);
      ("tcp loopback", wire Eden_wire.Transport.Tcp);
    ]
  in
  Printf.printf
    "Each row runs the same topology at %d shards; in-process is the\n\
     deterministic oracle, the socket rows fork one OS process per leaf\n\
     shard and move every cross-shard item through the Bin codec and\n\
     the framed transport.  MB counts the bytes the sinks collected\n\
     (Bin-encoded integers, newline-terminated lines); every row's\n\
     streams must be byte-identical to the oracle's.\n\n"
    domains;
  let spec =
    if quick then
      { Par.Topo.default with branches = 4; filters = 1; items = 24; work = 200 }
    else { Par.Topo.default with branches = 8; filters = 2; items = 160; work = 2_000 }
  in
  let f2_items = if quick then 48 else 400 in
  let f2_filters = 4 in
  let tbl =
    Table.create ~title:"W1: items/s and MB/s per transport (best of 3)"
      ~columns:
        [
          ("workload", Table.Left);
          ("transport", Table.Left);
          ("items", Table.Right);
          ("bytes", Table.Right);
          ("wall s", Table.Right);
          ("items/s", Table.Right);
          ("MB/s", Table.Right);
          ("stream = oracle", Table.Right);
        ]
  in
  let best_of_3 run =
    let best = ref infinity and out = ref None in
    for _ = 1 to 3 do
      let t0 = Unix.gettimeofday () in
      let o = run () in
      let dt = Unix.gettimeofday () -. t0 in
      if dt < !best then best := dt;
      out := Some o
    done;
    (Option.get !out, !best)
  in
  let row ~workload ~transport ~items ~bytes ~dt ~ok =
    [
      workload;
      transport;
      Table.cell_int items;
      Table.cell_int bytes;
      Table.cell_float ~decimals:3 dt;
      Table.cell_int (int_of_float (float_of_int items /. dt));
      Table.cell_float ~decimals:2 (float_of_int bytes /. dt /. 1e6);
      (if ok then "yes" else "NO");
    ]
  in
  let mismatch = ref false in
  let measure ~workload topo =
    let oracle = ref None in
    List.iter
      (fun (name, mode) ->
        let o, dt = best_of_3 (fun () -> Par.Topo.run mode ~domains topo) in
        let ok =
          match !oracle with
          | None ->
              oracle := Some o.Par.Topo.sinks;
              true
          | Some s -> s = o.Par.Topo.sinks
        in
        if not ok then mismatch := true;
        let bytes = List.fold_left (fun a (_, s) -> a + String.length s) 0 o.Par.Topo.sinks in
        Table.add_row tbl
          (row ~workload ~transport:name ~items:(Par.Topo.consumed o) ~bytes ~dt ~ok))
      modes
  in
  (* Fan-in: wide, many cross-shard edges.  F2: one deep chain, every
     edge cross-shard. *)
  measure ~workload:"fan-in" (Par.Topo.fanin ~domains spec);
  measure ~workload:"F2 chain"
    (Par.Topo.f2 ~batch:2 ~domains ~filters:f2_filters ~items:f2_items ());
  Table.print tbl;
  if !mismatch then begin
    print_endline "w1: FAILED (a transport diverged from the oracle stream)";
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* A1: authenticated wire overhead                                     *)
(* ------------------------------------------------------------------ *)

let a1 ?(quick = false) () =
  section "A1  Authenticated wire: per-socket sealing overhead (wall clock)";
  let domains = 3 in
  let f2_filters = 3 in
  (* 4096 items keep each streamed run near 0.1 s on a small host, long
     enough that fork, socket set-up and scheduling jitter stay well
     inside the gate's 15% width. *)
  let n_items = if quick then 128 else 4096 in
  Printf.printf
    "The F2 chain over Unix sockets at %d shards, plain versus the\n\
     authenticated transport (a session MAC sealing every data frame,\n\
     under a per-socket token both ends derive from the community key\n\
     and a run nonce).  'setup' rows move one item, so the wall clock\n\
     is socket pairs + fork; 'stream' rows move %d items and measure\n\
     the steady-state sealing cost.  Streams must stay byte-identical\n\
     to the unauthenticated run, and the batch-64 authenticated\n\
     overhead must stay within 15%% (gated on the full run).\n\n"
    domains n_items;
  let mode auth =
    Par.Cluster.Wire
      {
        Par.Cluster.wire_transport = Eden_wire.Transport.Unix_socket;
        wire_faults = None;
        wire_auth =
          (if auth then
             Some (Eden_wire.Auth.community ~id:0xEDE11L ~key:"0123456789abcdef")
           else None);
      }
  in
  (* Interleaved minimum-of-n: each run forks leaf processes, so wall
     clocks jitter by more than the 15% gate width.  The minimum over
     several repetitions is the stable floor estimator of the actual
     streaming cost, and interleaving the plain/authenticated runs
     makes slow machine phases (load spikes, frequency steps) hit both
     sides alike instead of biasing whichever ran second. *)
  let reps = if quick then 3 else 9 in
  let timed run =
    let t0 = Unix.gettimeofday () in
    let o = run () in
    (o, Unix.gettimeofday () -. t0)
  in
  let best_interleaved runs =
    let n = List.length runs in
    let best = Array.make n infinity and out = Array.make n None in
    for _ = 1 to reps do
      List.iteri
        (fun i run ->
          let o, dt = timed run in
          if dt < best.(i) then best.(i) <- dt;
          out.(i) <- Some o)
        runs
    done;
    List.init n (fun i -> (Option.get out.(i), best.(i)))
  in
  let tbl =
    Table.create
      ~title:
        (Printf.sprintf "A1: plain vs authenticated Unix-socket wire (interleaved min of %d)"
           reps)
      ~columns:
        [
          ("phase", Table.Left);
          ("wire", Table.Left);
          ("batch", Table.Right);
          ("items", Table.Right);
          ("wall s", Table.Right);
          ("items/s", Table.Right);
          ("stream = plain", Table.Right);
        ]
  in
  let mismatch = ref false in
  let measure ~phase ~items ~batch =
    let modes = [ ("plain", false); ("authenticated", true) ] in
    let timings =
      best_interleaved
        (List.map
           (fun (_, auth) () ->
             Par.Topo.run (mode auth) ~domains
               (Par.Topo.f2 ~batch ~domains ~filters:f2_filters ~items ()))
           modes)
    in
    let oracle = ref None in
    List.map2
      (fun (name, _) (o, dt) ->
        let ok =
          match !oracle with
          | None ->
              oracle := Some o.Par.Topo.sinks;
              true
          | Some s -> s = o.Par.Topo.sinks
        in
        if not ok then mismatch := true;
        Table.add_row tbl
          [
            phase;
            name;
            Table.cell_int batch;
            Table.cell_int (Par.Topo.consumed o);
            Table.cell_float ~decimals:3 dt;
            Table.cell_int (int_of_float (float_of_int (Par.Topo.consumed o) /. dt));
            (if ok then "yes" else "NO");
          ];
        dt)
      modes timings
  in
  let setup = measure ~phase:"setup" ~items:1 ~batch:1 in
  let b1 = measure ~phase:"stream" ~items:n_items ~batch:1 in
  let b64 = measure ~phase:"stream" ~items:n_items ~batch:64 in
  Table.print tbl;
  let overhead = function
    | [ plain; authed ] -> (authed -. plain) /. plain *. 100.0
    | _ -> nan
  in
  Printf.printf "connection setup overhead:      %+.1f%%\n" (overhead setup);
  Printf.printf "per-item overhead at batch 1:   %+.1f%%\n" (overhead b1);
  (* The quick row's 128 items x 3 repetitions are too few for a 15%
     wall-clock gate to be stable; it checks the streams and reports the
     ratio, and the full run enforces the gate. *)
  Printf.printf "per-batch overhead at batch 64: %+.1f%%  (gate: <= 15%%%s)\n" (overhead b64)
    (if quick then ", enforced by the full run only" else "");
  if !mismatch then begin
    print_endline "a1: FAILED (authenticated stream diverged from the plain oracle)";
    exit 1
  end;
  if (not quick) && overhead b64 > 15.0 then begin
    print_endline "a1: FAILED (batch-64 authenticated overhead above 15%)";
    exit 1
  end

let b2 ?(quick = false) () =
  section "B2  Zero-copy data plane: MB/s per discipline and transport (wall clock)";
  let domains = 3 in
  let items = if quick then 192 else 65536 in
  Printf.printf
    "The F2 chain moves the same ~%d-line document under three disciplines:\n\
     item-at-a-time (one Str per Transfer), batch-64 (64 Strs per Transfer)\n\
     and chunked (flat byte slices under the chunked flow config, 64 KiB\n\
     cuts).  Filters are identity, as in B1: the measurement isolates the\n\
     data plane — framing, flow control, transport — not line-filter CPU\n\
     (the equivalence matrix proves the line filters byte-correct\n\
     separately).  Bytes counts the sink's output stream, which must be\n\
     identical across every cell; invocations are the simulator's count of\n\
     calls it took to move them.  The zero-copy claim is the bottom line:\n\
     chunked must beat batch-64 by at least 5x MB/s in-process.\n\n"
    items;
  let wire tr =
    Par.Cluster.Wire { Par.Cluster.wire_transport = tr; wire_faults = None; wire_auth = None }
  in
  let transports =
    [
      ("in-process", Par.Cluster.Deterministic);
      ("unix socket", wire Eden_wire.Transport.Unix_socket);
      ("tcp loopback", wire Eden_wire.Transport.Tcp);
    ]
  in
  let disciplines =
    [
      ("item-at-a-time", Par.Topo.Boxed, 1);
      ("batch-64", Par.Topo.Boxed, 64);
      ("chunked", Par.Topo.chunked ~cut:65536 ~chunk_bytes:65536 (), 1);
    ]
  in
  let tbl =
    Table.create ~title:"B2: F2 chain, 3 filters, 3 shards (best of 3)"
      ~columns:
        [
          ("discipline", Table.Left);
          ("transport", Table.Left);
          ("bytes", Table.Right);
          ("invocations", Table.Right);
          ("inv/MB", Table.Right);
          ("wall s", Table.Right);
          ("MB/s", Table.Right);
          ("stream = oracle", Table.Right);
        ]
  in
  let best_of_3 run =
    let best = ref infinity and out = ref None in
    for _ = 1 to 3 do
      let t0 = Unix.gettimeofday () in
      let o = run () in
      let dt = Unix.gettimeofday () -. t0 in
      if dt < !best then best := dt;
      out := Some o
    done;
    (Option.get !out, !best)
  in
  let views0 = Eden_chunk.Chunk.live_views () in
  let oracle = ref None in
  let mismatch = ref false in
  let mbps = Hashtbl.create 9 in
  List.iter
    (fun (dname, plane, batch) ->
      List.iter
        (fun (tname, mode) ->
          let o, dt =
            best_of_3 (fun () ->
                Par.Topo.run mode ~domains
                  (Par.Topo.f2 ~plane ~filter:(fun _ -> Par.Topo.Identity) ~batch ~capacity:16
                     ~domains ~filters:3 ~items ()))
          in
          let stream = List.assoc "sink" o.Par.Topo.sinks in
          let bytes = String.length stream in
          let ok =
            match !oracle with
            | None ->
                oracle := Some stream;
                true
            | Some s -> s = stream
          in
          if not ok then mismatch := true;
          let mb = float_of_int bytes /. 1e6 in
          let rate = mb /. dt in
          Hashtbl.replace mbps (dname, tname) rate;
          Table.add_row tbl
            [
              dname;
              tname;
              Table.cell_int bytes;
              Table.cell_int o.Par.Topo.meter.Kernel.Meter.invocations;
              Table.cell_int
                (int_of_float (float_of_int o.Par.Topo.meter.Kernel.Meter.invocations /. mb));
              Table.cell_float ~decimals:3 dt;
              Table.cell_float ~decimals:2 rate;
              (if ok then "yes" else "NO");
            ])
        transports)
    disciplines;
  Table.print tbl;
  if !mismatch then begin
    print_endline "b2: FAILED (a cell diverged from the oracle stream)";
    exit 1
  end;
  if Eden_chunk.Chunk.live_views () <> views0 then begin
    Printf.printf "b2: FAILED (chunk views leaked: %d -> %d)\n" views0
      (Eden_chunk.Chunk.live_views ());
    exit 1
  end;
  let chunked = Hashtbl.find mbps ("chunked", "in-process") in
  let batch64 = Hashtbl.find mbps ("batch-64", "in-process") in
  Printf.printf "b2: chunked/batch-64 in-process: %.1fx\n" (chunked /. batch64);
  (* The acceptance gate needs enough volume for per-invocation cost to
     dominate cluster setup; the quick row only smokes byte-identity. *)
  if (not quick) && chunked < 5.0 *. batch64 then begin
    print_endline "b2: FAILED (chunked < 5x batch-64 MB/s in-process)";
    exit 1
  end

(* --- S1: million-entity capacity ------------------------------------- *)

let s1_percentile a p =
  let s = Array.copy a in
  Array.sort Float.compare s;
  let n = Array.length s in
  if n = 0 then 0.0 else s.(min (n - 1) (int_of_float ((p *. float_of_int (n - 1)) +. 0.5)))

(* Heap bytes attributable to the block of allocations done by [f],
   after a full major cycle on both sides so floating garbage never
   counts against the entities. *)
let s1_live_delta f =
  Gc.full_major ();
  let w0 = (Gc.stat ()).Gc.live_words in
  let r = f () in
  Gc.full_major ();
  let w1 = (Gc.stat ()).Gc.live_words in
  (r, float_of_int ((w1 - w0) * 8))

let s1 ?(quick = false) () =
  section "S1  Million-entity capacity: flat stores, dormancy, wake-up latency";
  let n =
    match Option.bind (Sys.getenv_opt "EDEN_S1_N") int_of_string_opt with
    | Some n when n > 0 -> n
    | Some _ | None -> if quick then 10_000 else 1_000_000
  in
  let items_per = 4 in
  Printf.printf
    "N=%d entities (EDEN_S1_N overrides).  Dormant cost is measured live\n\
     heap delta across creation; producers are capacity-0 read-only\n\
     sources whose behaviour runs only on first activation (T2\n\
     scale-to-zero), so a dormant producer is an eject record, a slab\n\
     slot and a generator closure — no port, no worker fiber.  Wake-ups\n\
     arrive open-loop in Pareto-sized bursts (alpha 1.2: heavy-tailed)\n\
     and drain %d items each; latency is wall clock from burst arrival.\n\n"
    n items_per;
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  let tbl =
    Table.create
      ~title:(Printf.sprintf "S1: capacity and dormancy at N=%d" n)
      ~columns:[ ("phase", Table.Left); ("metric", Table.Left); ("value", Table.Right) ]
  in
  let row phase metric value = Table.add_row tbl [ phase; metric; value ] in
  (* Phase 1: bare ejects — the kernel store cost alone.  The behaviour
     closure is shared, so the per-entity cost is the eject record, its
     UID, the slab slot and the serial index slot. *)
  let bare_beh _ctx ~passive:_ = [ ("Echo", Fun.id) ] in
  let bare_bytes =
    let (kb, last), bytes =
      s1_live_delta (fun () ->
          let kb = Kernel.create ~seed:0x51L () in
          let last = ref None in
          for _ = 1 to n do
            last := Some (Kernel.create_eject kb ~type_name:"cell" bare_beh)
          done;
          (kb, last))
    in
    (match !last with
    | Some uid when Kernel.exists kb uid -> ()
    | _ -> fail "bare ejects: last UID does not resolve");
    bytes /. float_of_int n
  in
  row "bare ejects" "bytes/entity" (Table.cell_float ~decimals:1 bare_bytes);
  (* Phase 2: N dormant producers in one kernel. *)
  let gen_calls = ref 0 in
  let mk_gen p =
    let i = ref 0 in
    fun () ->
      incr gen_calls;
      if !i >= items_per then None
      else begin
        incr i;
        Some (Value.Str (Printf.sprintf "p%06d item %d payload" p !i))
      end
  in
  let t0 = Unix.gettimeofday () in
  let (k, srcs), prod_total =
    s1_live_delta (fun () ->
        let k = Kernel.create ~seed:0x51AB5L () in
        let srcs = Array.init n (fun p -> T.Stage.source_ro k ~capacity:0 (mk_gen p)) in
        (k, srcs))
  in
  let dt_create = Unix.gettimeofday () -. t0 in
  let prod_bytes = prod_total /. float_of_int n in
  row "dormant producers" "bytes/entity" (Table.cell_float ~decimals:1 prod_bytes);
  row "dormant producers" "create wall s" (Table.cell_float ~decimals:2 dt_create);
  row "dormant producers" "ejects live" (Table.cell_int (Kernel.Meter.snapshot k).Kernel.Meter.ejects_live);
  (* Dormancy really is free: an idle scheduler pass over the fully
     populated kernel does no invocations, no activations, no gen calls. *)
  Kernel.run_driver k (fun _ -> ());
  let m_idle = Kernel.Meter.snapshot k in
  Kernel.run_driver k (fun _ -> ());
  let idle = Kernel.Meter.diff (Kernel.Meter.snapshot k) m_idle in
  if !gen_calls <> 0 then fail "laziness violated: %d gen calls before any pull" !gen_calls;
  if idle.Kernel.Meter.invocations <> 0 || idle.Kernel.Meter.activations <> 0 then
    fail "dormancy not free: idle pass did %d invocations, %d activations"
      idle.Kernel.Meter.invocations idle.Kernel.Meter.activations;
  (* Phase 3: wake a cohort open-loop in Pareto bursts. *)
  let w = min (if quick then 2_000 else 20_000) n in
  let g = Prng.create 0xA1FAL in
  let first = Array.make w 0.0 and e2e = Array.make w 0.0 in
  let sched = Kernel.sched k in
  let m0 = Kernel.Meter.snapshot k in
  let gc0 = Gc.quick_stat () in
  let t_wake0 = Unix.gettimeofday () in
  let woken = ref 0 in
  let bursts = ref 0 in
  let burst_max = ref 0 in
  while !woken < w do
    let u = 1.0 -. Prng.float g 1.0 in
    let burst = min (w - !woken) (max 1 (int_of_float (4.0 *. (u ** (-1.0 /. 1.2))))) in
    let base = !woken in
    woken := !woken + burst;
    incr bursts;
    if burst > !burst_max then burst_max := burst;
    (* All of a burst's wakes land before any is served — open-loop
       within the burst; the driver drains to quiescence between
       bursts. *)
    Kernel.run_driver k (fun ctx ->
        for j = 0 to burst - 1 do
          let p = base + j in
          let ta = Unix.gettimeofday () in
          ignore
            (Sched.spawn sched ~name:"s1-wake" (fun () ->
                 let pull = T.Pull.connect ctx srcs.(p) in
                 let rec go n_read =
                   match T.Pull.read pull with
                   | Some _ ->
                       if n_read = 0 then first.(p) <- Unix.gettimeofday () -. ta;
                       go (n_read + 1)
                   | None ->
                       e2e.(p) <- Unix.gettimeofday () -. ta;
                       if n_read <> items_per then
                         fail "wake %d: stream had %d items, wanted %d" p n_read items_per
                 in
                 go 0))
        done)
  done;
  let dt_wake = Unix.gettimeofday () -. t_wake0 in
  let md = Kernel.Meter.diff (Kernel.Meter.snapshot k) m0 in
  let gc1 = Gc.quick_stat () in
  if !gen_calls <> w * (items_per + 1) then
    fail "gen calls after wakes: %d, wanted %d" !gen_calls (w * (items_per + 1));
  let us v = Table.cell_float ~decimals:1 (v *. 1e6) in
  row "wake-up" "cohort / bursts / max"
    (Printf.sprintf "%d / %d / %d" w !bursts !burst_max);
  row "wake-up" "p50 first-item us" (us (s1_percentile first 0.50));
  row "wake-up" "p99 first-item us" (us (s1_percentile first 0.99));
  row "wake-up" "max first-item us" (us (s1_percentile first 1.0));
  row "wake-up" "p50 end-to-end us" (us (s1_percentile e2e 0.50));
  row "wake-up" "p99 end-to-end us" (us (s1_percentile e2e 0.99));
  row "wake-up" "wakes/s"
    (Table.cell_int (int_of_float (float_of_int w /. dt_wake)));
  row "wake-up" "invocations/wake"
    (Table.cell_float ~decimals:1 (float_of_int md.Kernel.Meter.invocations /. float_of_int w));
  row "GC pacing" "minor words/wake"
    (Table.cell_int
       (int_of_float ((gc1.Gc.minor_words -. gc0.Gc.minor_words) /. float_of_int w)));
  row "GC pacing" "minor collections" (Table.cell_int (gc1.Gc.minor_collections - gc0.Gc.minor_collections));
  row "GC pacing" "major collections" (Table.cell_int (gc1.Gc.major_collections - gc0.Gc.major_collections));
  (* Phase 4: the F3/F4 window fan-in scenario — parallel chunked must
     reproduce the deterministic boxed byte streams at capacity scale. *)
  let fan_p = if quick then 200 else 2_000 in
  let run_fan mode plane =
    let t0 = Unix.gettimeofday () in
    let o =
      Par.Topo.run mode ~seed:0x51FAL ~domains:3
        (Par.Topo.window ~window:100 ~style:`Ro ~plane ~domains:3 ~producers:fan_p ~items:5 ())
    in
    (o, Unix.gettimeofday () -. t0)
  in
  let det_o, det_dt = run_fan Par.Cluster.Deterministic Par.Topo.Boxed in
  let par_o, par_dt = run_fan Par.Cluster.Parallel (Par.Topo.chunked ~cut:97 ()) in
  if not det_o.Par.Topo.eos_clean then fail "fan-in: deterministic EOS not clean";
  if not par_o.Par.Topo.eos_clean then fail "fan-in: parallel EOS not clean";
  if par_o.Par.Topo.chunk_items = 0 then fail "fan-in: chunked plane downgraded to boxed";
  if det_o.Par.Topo.sinks <> par_o.Par.Topo.sinks then
    fail "fan-in: parallel chunked bytes diverged from deterministic boxed";
  if det_o.Par.Topo.reports <> par_o.Par.Topo.reports then
    fail "fan-in: report streams diverged across runtimes";
  row "fan-in window" "producers" (Table.cell_int fan_p);
  row "fan-in window" "det boxed wall s" (Table.cell_float ~decimals:2 det_dt);
  row "fan-in window" "par chunked wall s" (Table.cell_float ~decimals:2 par_dt);
  row "fan-in window" "par == det" "yes";
  Table.print tbl;
  (* Pinned regression bounds: generous multiples of measured steady
     state (130 B bare, 282 B per dormant producer, p99 ~110 ms under
     3k-wake open-loop bursts where the tail is queueing-dominated), so
     real regressions (a pointer per entity is +8 bytes; a leaked port
     is +hundreds; a tombstoned heap turns the tail quadratic) trip
     them while CI noise does not. *)
  let bound_bare = 200.0 and bound_prod = 480.0 and bound_p99 = 0.500 in
  if bare_bytes > bound_bare then
    fail "bytes/entity (bare) %.1f exceeds pinned bound %.0f" bare_bytes bound_bare;
  if prod_bytes > bound_prod then
    fail "bytes/entity (dormant producer) %.1f exceeds pinned bound %.0f" prod_bytes
      bound_prod;
  if s1_percentile first 0.99 > bound_p99 then
    fail "p99 first-item wake %.1f ms exceeds pinned bound %.0f ms"
      (s1_percentile first 0.99 *. 1e3)
      (bound_p99 *. 1e3);
  match !failures with
  | [] -> Printf.printf "s1: PASSED (N=%d, %d wakes, fan-in %d producers)\n" n w fan_p
  | fs ->
      List.iter (fun f -> Printf.printf "s1: FAILED (%s)\n" f) (List.rev fs);
      exit 1

(* Tiny-iteration smoke over the figures and B1, cheap enough for
   `dune runtest`; exercises the full experiment code paths. *)
let quick () =
  fig1 ();
  fig2 ();
  fig3 ();
  fig4 ();
  b1 ~quick:true ();
  e1 ~quick:true ();
  c1 ();
  w1 ~quick:true ();
  a1 ~quick:true ();
  b2 ~quick:true ();
  s1 ~quick:true ()

let all () =
  smoke ();
  fig1 ();
  fig2 ();
  fig3 ();
  fig4 ();
  table1 ();
  table2 ();
  table3 ();
  table4 ();
  table5 ();
  table6 ();
  ablation ();
  r1 ();
  b1 ();
  e1 ();
  c1 ();
  w1 ();
  a1 ();
  b2 ();
  s1 ()
