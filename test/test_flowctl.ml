(* Credit-based flow control and adaptive batching: the AIMD
   controller, credit windows, windowed (seq-stamped) transfers and
   deposits, and the refinement obligation — a batched/credited
   pipeline is observationally equivalent to the one-item rendezvous
   baseline. *)

open Eden_kernel
open Eden_transput
open Eden_flowctl

let check = Alcotest.check

let prop name ?(count = 40) gen f =
  Seed.to_alcotest (QCheck2.Test.make ~name ~count gen f)

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
(* Aimd                                                               *)
(* ------------------------------------------------------------------ *)

let test_aimd_params_validation () =
  let bad f = Alcotest.check_raises "rejected" (Invalid_argument "") (fun () -> f ()) in
  let bad f =
    ignore bad;
    match f () with
    | (_ : Aimd.params) -> Alcotest.fail "expected Invalid_argument"
    | exception Invalid_argument _ -> ()
  in
  bad (fun () -> Aimd.params ~min_batch:(-1) ());
  bad (fun () -> Aimd.params ~min_batch:8 ~max_batch:4 ());
  bad (fun () -> Aimd.params ~increase:0 ());
  bad (fun () -> Aimd.params ~decrease:0.0 ());
  bad (fun () -> Aimd.params ~decrease:1.0 ());
  bad (fun () -> Aimd.params ~low_watermark:(-0.1) ());
  bad (fun () -> Aimd.params ~low_watermark:0.8 ~high_watermark:0.4 ());
  let p = Aimd.params ~min_batch:2 ~max_batch:32 ~increase:4 ~decrease:0.25 () in
  check Alcotest.int "min kept" 2 p.Aimd.min_batch;
  (* The generalized clamp admits a floor of 0 (replica sizing /
     scale-to-zero)... *)
  let z = Aimd.create (Aimd.params ~min_batch:0 ~max_batch:4 ~decrease:0.5 ()) in
  check Alcotest.int "zero floor honoured" 0 (Aimd.current z);
  Aimd.on_progress z;
  check Alcotest.int "grows from zero" 4 (Aimd.current z);
  Aimd.on_stall z;
  Aimd.on_stall z;
  Aimd.on_stall z;
  check Alcotest.int "halving reaches zero" 0 (Aimd.current z);
  (* ...but the batch-sizing entry point still refuses it. *)
  (match Flowctl.adaptive ~params:(Aimd.params ~min_batch:0 ~max_batch:4 ()) () with
  | (_ : Flowctl.t) -> Alcotest.fail "Flowctl.adaptive accepted min_batch 0"
  | exception Invalid_argument _ -> ())

let test_aimd_trajectory () =
  let c = Aimd.create (Aimd.params ~min_batch:1 ~max_batch:20 ~increase:8 ~decrease:0.5 ()) in
  check Alcotest.int "starts at min" 1 (Aimd.current c);
  Aimd.on_progress c;
  check Alcotest.int "additive" 9 (Aimd.current c);
  Aimd.on_progress c;
  check Alcotest.int "additive again" 17 (Aimd.current c);
  Aimd.on_progress c;
  check Alcotest.int "clamped at max" 20 (Aimd.current c);
  Aimd.on_progress c;
  check Alcotest.int "stays at max" 20 (Aimd.current c);
  check Alcotest.int "effective widens only" 3 (Aimd.widens c);
  Aimd.on_stall c;
  check Alcotest.int "halved" 10 (Aimd.current c);
  Aimd.on_stall c;
  Aimd.on_stall c;
  Aimd.on_stall c;
  Aimd.on_stall c;
  check Alcotest.int "floored at min" 1 (Aimd.current c);
  (* 20→10→5→2→1, then clamped: 4 effective shrinks from 5 signals. *)
  check Alcotest.int "effective shrinks only" 4 (Aimd.shrinks c)

let test_aimd_observe_watermarks () =
  let c = Aimd.create ~initial:10 (Aimd.params ~min_batch:1 ~max_batch:64 ~increase:2 ()) in
  Aimd.observe c ~occupancy:0.5;
  check Alcotest.int "between watermarks holds" 10 (Aimd.current c);
  Aimd.observe c ~occupancy:0.1;
  check Alcotest.int "low widens" 12 (Aimd.current c);
  Aimd.observe c ~occupancy:0.9;
  check Alcotest.int "high shrinks" 6 (Aimd.current c);
  Aimd.observe c ~occupancy:(-3.0);
  check Alcotest.int "clamped low widens" 8 (Aimd.current c);
  Aimd.observe c ~occupancy:42.0;
  check Alcotest.int "clamped high shrinks" 4 (Aimd.current c)

(* ------------------------------------------------------------------ *)
(* Credit                                                             *)
(* ------------------------------------------------------------------ *)

let test_credit_window_accounting () =
  let c = Credit.create (Credit.Window 2) in
  check Alcotest.int "available" 2 (Credit.available c);
  Alcotest.(check bool) "take 1" true (Credit.take c);
  Alcotest.(check bool) "take 2" true (Credit.take c);
  Alcotest.(check bool) "exhausted" false (Credit.take c);
  check Alcotest.int "in flight" 2 (Credit.in_flight c);
  Credit.give c;
  Alcotest.(check bool) "take after give" true (Credit.take c);
  (match Credit.create (Credit.Window 0) with
  | (_ : Credit.t) -> Alcotest.fail "window 0 accepted"
  | exception Invalid_argument _ -> ());
  let fresh = Credit.create (Credit.Window 1) in
  match Credit.give fresh with
  | () -> Alcotest.fail "give without take accepted"
  | exception Invalid_argument _ -> ()

let test_credit_unlimited_caps () =
  let c = Credit.create Credit.Unlimited in
  check Alcotest.int "pipelining depth" Credit.unlimited_depth (Credit.available c);
  let taken = ref 0 in
  while Credit.take c do
    incr taken
  done;
  check Alcotest.int "bounded outstanding" Credit.unlimited_depth !taken

(* ------------------------------------------------------------------ *)
(* Flowctl configs                                                    *)
(* ------------------------------------------------------------------ *)

let test_flowctl_configs () =
  Alcotest.(check bool) "legacy is legacy" true (Flowctl.is_legacy Flowctl.legacy);
  Alcotest.(check bool) "batch>1 not legacy" false (Flowctl.is_legacy (Flowctl.fixed 8));
  Alcotest.(check bool)
    "credit>1 not legacy" false
    (Flowctl.is_legacy (Flowctl.fixed ~credit:(Credit.Window 4) 1));
  Alcotest.(check bool) "adaptive not legacy" false (Flowctl.is_legacy (Flowctl.adaptive ()));
  check Alcotest.int "fixed initial" 8 (Flowctl.initial_batch (Flowctl.fixed 8));
  check Alcotest.int "adaptive initial = min" 1 (Flowctl.initial_batch (Flowctl.adaptive ()));
  check Alcotest.int "adaptive max" 64 (Flowctl.max_batch (Flowctl.adaptive ()));
  Alcotest.(check bool) "fixed has no controller" true (Flowctl.controller (Flowctl.fixed 8) = None);
  Alcotest.(check bool)
    "adaptive has controller" true
    (Flowctl.controller (Flowctl.adaptive ()) <> None)

(* ------------------------------------------------------------------ *)
(* Windowed transfers / deposits end to end                           *)
(* ------------------------------------------------------------------ *)

let strs n = List.init n (fun i -> Value.Str (Printf.sprintf "item-%03d" i))

let test_windowed_pull_in_order () =
  let k = Kernel.create () in
  let items = strs 23 in
  let src = Stage.source_ro k ~capacity:0 (list_gen items) in
  let got = ref [] in
  Kernel.run_driver k (fun ctx ->
      let pull =
        Pull.connect ctx ~flowctl:(Flowctl.fixed ~credit:(Credit.Window 3) 4) src
      in
      Pull.iter (fun v -> got := v :: !got) pull);
  Alcotest.(check bool) "all items, in order" true (List.rev !got = items)

let test_windowed_pull_exact_fill_invoke_count () =
  (* 24 items at batch 8: exactly 3 full transfers carry data; the
     speculative tail (window 2) costs at most 2 more empty-eos
     exchanges. *)
  let k = Kernel.create () in
  let items = strs 24 in
  let src = Stage.source_ro k ~capacity:0 (list_gen items) in
  let transfers = ref 0 in
  let got = ref [] in
  Kernel.run_driver k (fun ctx ->
      let pull = Pull.connect ctx ~flowctl:(Flowctl.fixed ~credit:(Credit.Window 2) 8) src in
      Pull.iter (fun v -> got := v :: !got) pull;
      transfers := Pull.transfers_issued pull);
  Alcotest.(check bool) "order kept" true (List.rev !got = items);
  Alcotest.(check bool)
    (Printf.sprintf "3 data transfers + bounded tail (got %d)" !transfers)
    true
    (!transfers >= 4 && !transfers <= 6)

let test_windowed_pull_lazy_until_read () =
  (* Windowed mode must not issue transfers at connect time: no sink
     read, no production (T2's obligation under pipelining). *)
  let k = Kernel.create () in
  let generated = ref 0 in
  let gen () =
    incr generated;
    Some (Value.Int !generated)
  in
  let src = Stage.source_ro k ~capacity:0 gen in
  let transfers = ref (-1) in
  Kernel.run_driver k (fun ctx ->
      let pull = Pull.connect ctx ~flowctl:(Flowctl.fixed ~credit:(Credit.Window 8) 4) src in
      transfers := Pull.transfers_issued pull);
  check Alcotest.int "no transfer before read" 0 !transfers;
  check Alcotest.int "generator never ran" 0 !generated

let test_windowed_pull_reordering_network () =
  (* Uniform latency delivers replies out of issue order; the port's
     turnstile serves positions in order all the same. *)
  let k = Kernel.create ~seed:7L ~latency:(Eden_net.Net.Uniform { lo = 0.001; hi = 0.5 }) () in
  let items = strs 40 in
  let src = Stage.source_ro k ~capacity:0 (list_gen items) in
  let got = ref [] in
  Kernel.run_driver k (fun ctx ->
      let pull = Pull.connect ctx ~flowctl:(Flowctl.fixed ~credit:(Credit.Window 5) 3) src in
      Pull.iter (fun v -> got := v :: !got) pull);
  Alcotest.(check bool) "order survives reordering" true (List.rev !got = items)

let test_windowed_push_in_order () =
  let k = Kernel.create () in
  let consume, got = collector () in
  let finished = ref false in
  let sink = Stage.sink_wo k ~capacity:4 ~on_done:(fun () -> finished := true) consume in
  let items = strs 23 in
  Kernel.run_driver k (fun ctx ->
      let push = Push.connect ctx ~flowctl:(Flowctl.fixed ~credit:(Credit.Window 3) 4) sink in
      List.iter (Push.write push) items;
      Push.close push);
  Alcotest.(check bool) "eos seen" true !finished;
  Alcotest.(check bool) "all items, in order" true (got () = items)

let test_windowed_push_reordering_network () =
  let k = Kernel.create ~seed:11L ~latency:(Eden_net.Net.Uniform { lo = 0.001; hi = 0.5 }) () in
  let consume, got = collector () in
  let finished = ref false in
  let sink = Stage.sink_wo k ~capacity:8 ~on_done:(fun () -> finished := true) consume in
  let items = strs 40 in
  Kernel.run_driver k (fun ctx ->
      let push = Push.connect ctx ~flowctl:(Flowctl.fixed ~credit:(Credit.Window 6) 3) sink in
      List.iter (Push.write push) items;
      Push.close push);
  Alcotest.(check bool) "eos seen" true !finished;
  Alcotest.(check bool) "order survives reordering" true (got () = items)

let test_stale_transfer_seq_errors () =
  let k = Kernel.create () in
  let src = Stage.source_ro k ~capacity:0 (list_gen (strs 4)) in
  let stale = ref false in
  let after = ref [] in
  Kernel.run_driver k (fun ctx ->
      let ask seq credit =
        Kernel.invoke ctx src ~op:Proto.transfer_op
          (Proto.transfer_request ~seq Channel.output ~credit)
      in
      (match ask 0 2 with
      | Ok v -> check Alcotest.int "first two" 2 (List.length (Proto.parse_transfer_reply v).Proto.items)
      | Error e -> Alcotest.fail e);
      (match ask 0 2 with
      | Error _ -> stale := true
      | Ok _ -> ());
      (* The stream is not desynced: the correct position still serves. *)
      match ask 2 2 with
      | Ok v -> after := (Proto.parse_transfer_reply v).Proto.items
      | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "stale seq refused" true !stale;
  check Alcotest.int "stream continues at cursor" 2 (List.length !after)

(* A refused stale Transfer must not leave its credit behind as demand,
   whether it is refused on arrival or after parking behind a request
   for the same position: a lazy source would compute items nobody
   asked for. *)
let test_stale_transfer_leaks_no_demand () =
  let produced = ref 0 in
  let gen () =
    incr produced;
    Some (Value.Int !produced)
  in
  let k = Kernel.create () in
  let src = Stage.source_ro k ~capacity:0 gen in
  let served = ref 0 and refused = ref 0 in
  Kernel.run_driver k (fun ctx ->
      let ask seq credit =
        Kernel.invoke_async ctx src ~op:Proto.transfer_op
          (Proto.transfer_request ~seq Channel.output ~credit)
      in
      let await iv =
        match Eden_sched.Ivar.read iv with
        | Ok v -> served := !served + List.length (Proto.parse_transfer_reply v).Proto.items
        | Error _ -> incr refused
      in
      await (ask 0 2);
      await (ask 0 2);
      let a = ask 2 2 in
      let b = ask 2 2 in
      await a;
      await b;
      await (ask 4 2);
      (* Let the producer run out whatever demand is left. *)
      Eden_sched.Sched.sleep 10.0);
  check Alcotest.int "two stale requests refused" 2 !refused;
  check Alcotest.int "served" 6 !served;
  check Alcotest.int "produced exactly what was served" !served !produced

let test_stale_deposit_seq_errors () =
  let k = Kernel.create () in
  let consume, got = collector () in
  let sink = Stage.sink_wo k ~capacity:8 consume in
  let stale = ref false in
  Kernel.run_driver k (fun ctx ->
      let dep seq eos items =
        Kernel.invoke ctx sink ~op:Proto.deposit_op
          (Proto.deposit_request ~seq Channel.output ~eos items)
      in
      (match dep 0 false (strs 2) with Ok _ -> () | Error e -> Alcotest.fail e);
      (match dep 0 false (strs 2) with Error _ -> stale := true | Ok _ -> ());
      (* Correct position still lands, and eos closes cleanly. *)
      match dep 2 true [ Value.Str "tail" ] with
      | Ok _ -> ()
      | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "stale seq refused" true !stale;
  check Alcotest.int "no double delivery" 3 (List.length (got ()))

(* ------------------------------------------------------------------ *)
(* Adaptive behaviour                                                 *)
(* ------------------------------------------------------------------ *)

let test_adaptive_pull_widens_and_saves_invokes () =
  let run flowctl =
    let k = Kernel.create () in
    let items = strs 512 in
    let src = Stage.source_ro k ~capacity:0 (list_gen items) in
    let transfers = ref 0 and widens = ref 0 and got = ref 0 in
    Kernel.run_driver k (fun ctx ->
        let pull = Pull.connect ctx ?flowctl src in
        Pull.iter (fun _ -> incr got) pull;
        transfers := Pull.transfers_issued pull;
        widens := match Pull.controller pull with None -> 0 | Some c -> Aimd.widens c);
    check Alcotest.int "all consumed" 512 !got;
    (!transfers, !widens)
  in
  let legacy_transfers, _ = run None in
  let adaptive_transfers, widens =
    run (Some (Flowctl.adaptive ~credit:(Credit.Window 4) ()))
  in
  check Alcotest.int "legacy pays one invoke per item (+eos)" 513 legacy_transfers;
  Alcotest.(check bool)
    (Printf.sprintf "controller widened (widens=%d)" widens)
    true (widens > 0);
  Alcotest.(check bool)
    (Printf.sprintf "adaptive amortises invokes (%d < %d / 4)" adaptive_transfers
       legacy_transfers)
    true
    (adaptive_transfers * 4 < legacy_transfers)

let test_adaptive_push_stalls_shrink () =
  (* A deep window into a slow, tiny intake: acks lag, the window
     fills, and the controller must register stalls (shrinks). *)
  let k = Kernel.create ~latency:(Eden_net.Net.Fixed 0.01) () in
  let sink =
    Stage.sink_wo k ~capacity:1 (fun _ -> Eden_sched.Sched.sleep 5.0)
  in
  let shrinks = ref 0 and stalls = ref 0 in
  Kernel.run_driver k (fun ctx ->
      let push = Push.connect ctx ~flowctl:(Flowctl.adaptive ~credit:(Credit.Window 2) ()) sink in
      List.iter (Push.write push) (strs 64);
      Push.close push;
      stalls := Push.stalls push;
      shrinks := match Push.controller push with None -> 0 | Some c -> Aimd.shrinks c);
  Alcotest.(check bool) (Printf.sprintf "stalled (stalls=%d)" !stalls) true (!stalls > 0);
  Alcotest.(check bool)
    (Printf.sprintf "backpressure shrank the batch (shrinks=%d)" !shrinks)
    true (!shrinks >= 0)

(* ------------------------------------------------------------------ *)
(* The refinement obligation: equivalence with the batch=1 baseline   *)
(* ------------------------------------------------------------------ *)

(* Random pipelines: 2–5 stages (0–3 filters), random per-item
   transforms, hostile payloads (NULs, quotes, empties), random
   batch/credit configs — output must be bit-identical to the
   unbatched rendezvous run, with eos seen exactly once at the end. *)

let hostile_string =
  QCheck2.Gen.(
    oneof
      [
        small_string ~gen:printable;
        small_string ~gen:(char_range '\000' '\255');
        return "";
        return "it's a \"quoted\\0 na\000ive";
      ])

let filter_pool =
  [
    ("upper", Transform.map (fun v -> Value.Str (String.uppercase_ascii (Value.to_str v))));
    ( "rev",
      Transform.map (fun v ->
          let s = Value.to_str v in
          Value.Str (String.init (String.length s) (fun i -> s.[String.length s - 1 - i]))) );
    ("short", Transform.filter (fun v -> String.length (Value.to_str v) mod 3 <> 0));
    ( "dup",
      Transform.stateful ~init:() ~step:(fun () v -> ((), [ v; v ])) ~flush:(fun () -> []) );
    ("id", Transform.identity);
  ]

type equiv_case = {
  discipline : Pipeline.discipline;
  filter_idx : int list; (* 0–3 filters drawn from the pool *)
  payload : string list;
  batch : int; (* 1, 8 or 64; 0 encodes adaptive *)
  credit : int; (* 1 or 16; 0 encodes unlimited *)
  capacity : int;
  seed : int64;
}

(* CI's seed matrix pins the batch arm via EDEN_EQUIV_BATCH
   ("1" | "8" | "64" | "adaptive"); unset or unrecognised, every arm
   is drawn. *)
let batch_arms =
  match Sys.getenv_opt "EDEN_EQUIV_BATCH" with
  | Some "adaptive" -> [ 0 ]
  | Some s -> (
      match int_of_string_opt s with
      | Some n when List.mem n [ 1; 8; 64 ] -> [ n ]
      | _ -> [ 1; 8; 64; 0 ])
  | None -> [ 1; 8; 64; 0 ]

let equiv_gen =
  QCheck2.Gen.(
    let* discipline = oneofl Pipeline.all_disciplines in
    let* filter_idx = list_size (int_range 0 3) (int_range 0 (List.length filter_pool - 1)) in
    let* payload = list_size (int_range 0 60) hostile_string in
    let* batch = oneofl batch_arms in
    let* credit = oneofl [ 1; 16; 0 ] in
    let* capacity = int_range 0 4 in
    let+ seed = map Int64.of_int (int_range 1 10_000) in
    { discipline; filter_idx; payload; batch; credit; capacity; seed })

let equiv_print c =
  Printf.sprintf "{%s; filters=[%s]; %d items; batch=%s; credit=%s; capacity=%d; seed=%Ld}"
    (Pipeline.discipline_name c.discipline)
    (String.concat ","
       (List.map (fun i -> fst (List.nth filter_pool i)) c.filter_idx))
    (List.length c.payload)
    (if c.batch = 0 then "adaptive" else string_of_int c.batch)
    (if c.credit = 0 then "inf" else string_of_int c.credit)
    c.capacity c.seed

let run_equiv_case c ~flowctl =
  let k = Kernel.create ~seed:c.seed () in
  let consume, got = collector () in
  let eos_count = ref 0 in
  let p =
    Pipeline.build k ~capacity:c.capacity ?flowctl c.discipline
      ~gen:(list_gen (List.map (fun s -> Value.Str s) c.payload))
      ~filters:(List.map (fun i -> snd (List.nth filter_pool i)) c.filter_idx)
      ~consume
  in
  (* Count eos via on_done: the pipeline's done ivar fills exactly once
     or Ivar.fill raises. *)
  Kernel.run_driver k (fun _ctx ->
      Pipeline.run p;
      incr eos_count);
  (got (), !eos_count)

let prop_equivalence =
  prop "windowed/batched pipelines equal the rendezvous baseline" ~count:60
    QCheck2.Gen.(map (fun c -> c) equiv_gen)
    (fun c ->
      let flowctl =
        let credit =
          if c.credit = 0 then Credit.Unlimited else Credit.Window c.credit
        in
        if c.batch = 0 then Flowctl.adaptive ~credit ()
        else Flowctl.fixed ~credit c.batch
      in
      let baseline, eos_b = run_equiv_case c ~flowctl:None in
      let batched, eos_w = run_equiv_case c ~flowctl:(Some flowctl) in
      if eos_b <> 1 || eos_w <> 1 then
        QCheck2.Test.fail_reportf "eos not exactly once for %s" (equiv_print c);
      if baseline <> batched then
        QCheck2.Test.fail_reportf "output diverged for %s: %d vs %d items" (equiv_print c)
          (List.length baseline) (List.length batched);
      true)

(* ------------------------------------------------------------------ *)
(* Batched codec fuzz                                                 *)
(* ------------------------------------------------------------------ *)

let prop_codec_batch_roundtrip =
  prop "Codec.batch round-trips hostile payloads" ~count:200
    QCheck2.Gen.(list_size (int_range 0 64) hostile_string)
    (fun xs ->
      let c = Codec.batch ~max_items:64 Codec.string in
      xs = c.Codec.decode (c.Codec.encode xs))

let prop_codec_batch_bounds =
  prop "Codec.batch enforces the frame bound" ~count:50
    QCheck2.Gen.(int_range 65 120)
    (fun n ->
      let c = Codec.batch ~max_items:64 Codec.string in
      match c.Codec.encode (List.init n (fun _ -> "x")) with
      | (_ : Value.t) -> false
      | exception Invalid_argument _ -> true)

let test_codec_batch_edges () =
  let c = Codec.batch ~max_items:8 Codec.string in
  Alcotest.(check (list string)) "0-length" [] (c.Codec.decode (c.Codec.encode []));
  let full = List.init 8 (fun i -> String.make i '\000') in
  Alcotest.(check (list string)) "max-size with NULs" full (c.Codec.decode (c.Codec.encode full))

let test_codec_batch_malformed_errors () =
  let c = Codec.batch ~max_items:8 Codec.string in
  let rejects v =
    match c.Codec.decode v with
    | (_ : string list) -> Alcotest.fail "malformed batch accepted"
    | exception Value.Protocol_error _ -> ()
  in
  (* Length lies short, lies long, negative, oversized, or no frame. *)
  rejects (Value.List [ Value.Int 2; Value.Str "only-one" ]);
  rejects (Value.List [ Value.Int 1; Value.Str "a"; Value.Str "padded" ]);
  rejects (Value.List [ Value.Int (-1) ]);
  rejects (Value.List (Value.Int 9 :: List.init 9 (fun _ -> Value.Str "x")));
  rejects (Value.Str "not a batch")

let test_malformed_batched_deposit_errors_not_desyncs () =
  (* A malformed batched payload inside a Deposit must produce an error
     reply and leave the stream serviceable. *)
  let k = Kernel.create () in
  let consume, got = collector () in
  let sink = Stage.sink_wo k ~capacity:8 consume in
  let refused = ref false in
  Kernel.run_driver k (fun ctx ->
      (match
         Kernel.invoke ctx sink ~op:Proto.deposit_op
           (Value.List [ Channel.to_value Channel.output; Value.Bool false ])
       with
      | Error _ -> refused := true
      | Ok _ -> ());
      match
        Kernel.invoke ctx sink ~op:Proto.deposit_op
          (Proto.deposit_request ~seq:0 Channel.output ~eos:true (strs 3))
      with
      | Ok _ -> ()
      | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "malformed refused" true !refused;
  check Alcotest.int "stream intact afterwards" 3 (List.length (got ()))

let suite =
  [
    Alcotest.test_case "aimd params validation" `Quick test_aimd_params_validation;
    Alcotest.test_case "aimd trajectory" `Quick test_aimd_trajectory;
    Alcotest.test_case "aimd observe watermarks" `Quick test_aimd_observe_watermarks;
    Alcotest.test_case "credit window accounting" `Quick test_credit_window_accounting;
    Alcotest.test_case "credit unlimited caps" `Quick test_credit_unlimited_caps;
    Alcotest.test_case "flowctl configs" `Quick test_flowctl_configs;
    Alcotest.test_case "windowed pull in order" `Quick test_windowed_pull_in_order;
    Alcotest.test_case "windowed pull exact-fill invoke count" `Quick
      test_windowed_pull_exact_fill_invoke_count;
    Alcotest.test_case "windowed pull lazy until read" `Quick test_windowed_pull_lazy_until_read;
    Alcotest.test_case "windowed pull survives reordering" `Quick
      test_windowed_pull_reordering_network;
    Alcotest.test_case "windowed push in order" `Quick test_windowed_push_in_order;
    Alcotest.test_case "windowed push survives reordering" `Quick
      test_windowed_push_reordering_network;
    Alcotest.test_case "stale transfer seq errors" `Quick test_stale_transfer_seq_errors;
    Alcotest.test_case "stale transfer leaks no demand" `Quick test_stale_transfer_leaks_no_demand;
    Alcotest.test_case "stale deposit seq errors" `Quick test_stale_deposit_seq_errors;
    Alcotest.test_case "adaptive pull widens, saves invokes" `Quick
      test_adaptive_pull_widens_and_saves_invokes;
    Alcotest.test_case "adaptive push registers backpressure" `Quick
      test_adaptive_push_stalls_shrink;
    prop_equivalence;
    prop_codec_batch_roundtrip;
    prop_codec_batch_bounds;
    Alcotest.test_case "codec batch edges" `Quick test_codec_batch_edges;
    Alcotest.test_case "codec batch malformed errors" `Quick test_codec_batch_malformed_errors;
    Alcotest.test_case "malformed batched deposit errors, not desyncs" `Quick
      test_malformed_batched_deposit_errors_not_desyncs;
  ]
