(* The observability layer: histograms, spans, flow meters, exports. *)

open Eden_kernel
module Obs = Eden_obs.Obs
module T = Eden_transput
module Topo = Eden_par.Topo

let check = Alcotest.check

(* --- A minimal JSON validator --------------------------------------- *)

(* No JSON library in the container, so well-formedness is checked by a
   tiny recursive-descent scanner: objects, arrays, strings (with
   escapes), numbers, true/false/null. *)
let validate_json s =
  let n = String.length s in
  let fail i msg = Alcotest.failf "bad JSON at offset %d: %s" i msg in
  let skip i =
    let j = ref i in
    while
      !j < n && (match s.[!j] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      incr j
    done;
    !j
  in
  let lit i w =
    let l = String.length w in
    if i + l <= n && String.sub s i l = w then i + l else fail i ("expected " ^ w)
  in
  let number i =
    let j = ref i in
    if !j < n && s.[!j] = '-' then incr j;
    let digits () =
      let k = !j in
      while !j < n && (match s.[!j] with '0' .. '9' -> true | _ -> false) do
        incr j
      done;
      if !j = k then fail !j "expected digit"
    in
    digits ();
    if !j < n && s.[!j] = '.' then begin
      incr j;
      digits ()
    end;
    if !j < n && (s.[!j] = 'e' || s.[!j] = 'E') then begin
      incr j;
      if !j < n && (s.[!j] = '+' || s.[!j] = '-') then incr j;
      digits ()
    end;
    !j
  in
  let rec string_body i =
    if i >= n then fail i "unterminated string"
    else
      match s.[i] with
      | '"' -> i + 1
      | '\\' ->
          if i + 1 >= n then fail i "unterminated escape"
          else (
            match s.[i + 1] with
            | '"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't' -> string_body (i + 2)
            | 'u' -> if i + 5 < n then string_body (i + 6) else fail i "short \\u escape"
            | _ -> fail i "bad escape")
      | c when Char.code c < 0x20 -> fail i "raw control character in string"
      | _ -> string_body (i + 1)
  in
  let rec value i =
    let i = skip i in
    if i >= n then fail i "unexpected end of input"
    else
      match s.[i] with
      | '{' -> obj (skip (i + 1)) ~first:true
      | '[' -> arr (skip (i + 1)) ~first:true
      | '"' -> string_body (i + 1)
      | 't' -> lit i "true"
      | 'f' -> lit i "false"
      | 'n' -> lit i "null"
      | '-' | '0' .. '9' -> number i
      | _ -> fail i "unexpected character"
  and obj i ~first =
    let i = skip i in
    if i < n && s.[i] = '}' then i + 1
    else
      let i =
        if first then i
        else if i < n && s.[i] = ',' then skip (i + 1)
        else fail i "expected , or }"
      in
      let i = skip i in
      let i = if i < n && s.[i] = '"' then string_body (i + 1) else fail i "expected key" in
      let i = skip i in
      let i = if i < n && s.[i] = ':' then i + 1 else fail i "expected :" in
      let i = skip (value i) in
      obj i ~first:false
  and arr i ~first =
    let i = skip i in
    if i < n && s.[i] = ']' then i + 1
    else
      let i =
        if first then i
        else if i < n && s.[i] = ',' then skip (i + 1)
        else fail i "expected , or ]"
      in
      let i = skip (value i) in
      arr i ~first:false
  in
  let i = skip (value 0) in
  if i <> n then fail i "trailing garbage"

(* --- Histograms ------------------------------------------------------ *)

let test_histogram_empty () =
  let h = Obs.Histogram.create () in
  check Alcotest.int "count" 0 (Obs.Histogram.count h);
  check (Alcotest.float 0.0) "p50" 0.0 (Obs.Histogram.percentile h 0.5);
  check (Alcotest.float 0.0) "mean" 0.0 (Obs.Histogram.mean h)

let test_histogram_single_value () =
  let h = Obs.Histogram.create () in
  for _ = 1 to 5 do
    Obs.Histogram.add h 3.0
  done;
  check Alcotest.int "count" 5 (Obs.Histogram.count h);
  check (Alcotest.float 1e-9) "mean" 3.0 (Obs.Histogram.mean h);
  (* Clamping to the observed min/max makes single-valued histograms
     exact at every percentile despite the coarse buckets. *)
  check (Alcotest.float 1e-9) "p50" 3.0 (Obs.Histogram.percentile h 0.5);
  check (Alcotest.float 1e-9) "p99" 3.0 (Obs.Histogram.percentile h 0.99);
  check (Alcotest.float 1e-9) "max" 3.0 (Obs.Histogram.max_value h)

let test_histogram_percentiles_bounded_and_monotone () =
  let h = Obs.Histogram.create ~lo:1.0 ~growth:2.0 () in
  for i = 1 to 100 do
    Obs.Histogram.add h (float_of_int i)
  done;
  check Alcotest.int "count" 100 (Obs.Histogram.count h);
  check (Alcotest.float 1e-9) "min" 1.0 (Obs.Histogram.min_value h);
  check (Alcotest.float 1e-9) "max" 100.0 (Obs.Histogram.max_value h);
  let p50 = Obs.Histogram.percentile h 0.5 in
  let p90 = Obs.Histogram.percentile h 0.9 in
  let p99 = Obs.Histogram.percentile h 0.99 in
  Alcotest.(check bool) "p50 <= p90 <= p99" true (p50 <= p90 && p90 <= p99);
  Alcotest.(check bool) "within observed range" true (p50 >= 1.0 && p99 <= 100.0);
  (* Rank 50 lands in bucket [32,64): a log-bucket answer, but on the
     right side of the median. *)
  Alcotest.(check bool) "p50 in the right bucket" true (p50 >= 32.0 && p50 <= 64.0)

let test_histogram_rejects_bad_config () =
  Alcotest.check_raises "lo must be positive"
    (Invalid_argument "Obs.Histogram.create: lo must be positive") (fun () ->
      ignore (Obs.Histogram.create ~lo:0.0 ()));
  Alcotest.check_raises "growth must exceed 1"
    (Invalid_argument "Obs.Histogram.create: growth must be > 1") (fun () ->
      ignore (Obs.Histogram.create ~growth:1.0 ()))

(* --- Spans ------------------------------------------------------------ *)

let test_span_begin_end () =
  let obs = Obs.create () in
  Obs.enable_spans obs;
  let root = Obs.span_begin obs ~name:"root" ~cat:"user" ~at:1.0 () in
  let child = Obs.span_begin obs ~parent:root ~name:"child" ~cat:"invoke" ~at:2.0 () in
  check Alcotest.int "both open" 2 (List.length (Obs.open_spans obs));
  Obs.span_end obs child ~at:3.0 ~ok:true;
  Obs.span_end obs root ~at:4.0 ~ok:true;
  Obs.span_end obs 9999 ~at:5.0 ~ok:true (* unknown ids are ignored *);
  check Alcotest.int "both closed" 2 (Obs.span_count obs);
  check Alcotest.int "none open" 0 (List.length (Obs.open_spans obs));
  match Obs.spans obs with
  | [ c; r ] ->
      (* Oldest-closed first. *)
      check Alcotest.string "child first" "child" c.Obs.Span.name;
      check (Alcotest.option Alcotest.int) "parent edge" (Some root) c.Obs.Span.parent;
      check (Alcotest.float 1e-9) "duration" 1.0 (Obs.Span.duration c);
      check (Alcotest.option Alcotest.int) "root has no parent" None r.Obs.Span.parent
  | l -> Alcotest.failf "expected 2 spans, got %d" (List.length l)

let test_span_ring_overflow () =
  let obs = Obs.create ~span_capacity:4 () in
  Obs.enable_spans obs;
  for i = 1 to 10 do
    let id = Obs.span_begin obs ~name:(Printf.sprintf "s%d" i) ~cat:"t" ~at:0.0 () in
    Obs.span_end obs id ~at:1.0 ~ok:true
  done;
  check Alcotest.int "ring holds capacity" 4 (Obs.span_count obs);
  check Alcotest.int "evictions counted" 6 (Obs.dropped_spans obs);
  check (Alcotest.list Alcotest.string) "newest retained, oldest first"
    [ "s7"; "s8"; "s9"; "s10" ]
    (List.map (fun s -> s.Obs.Span.name) (Obs.spans obs));
  Obs.clear_spans obs;
  check Alcotest.int "cleared" 0 (Obs.span_count obs);
  check Alcotest.int "dropped reset" 0 (Obs.dropped_spans obs);
  Alcotest.check_raises "capacity 0"
    (Invalid_argument "Obs.create: span_capacity must be positive") (fun () ->
      ignore (Obs.create ~span_capacity:0 ()))

let test_spans_disabled_are_free () =
  let obs = Obs.create () in
  Obs.instant obs ~name:"i" ~cat:"t" ~at:0.0 ();
  check Alcotest.int "instants gated off" 0 (Obs.span_count obs);
  Alcotest.(check bool) "disabled by default" false (Obs.spans_enabled obs)

(* --- The invocation tree over a real pipeline ------------------------- *)

let list_gen items =
  let rest = ref items in
  fun () ->
    match !rest with
    | [] -> None
    | x :: tl ->
        rest := tl;
        Some x

let run_spanned_pipeline ~n_filters ~n_items =
  let k = Kernel.create () in
  Obs.enable_spans (Kernel.obs k);
  let consumed = ref 0 in
  let p =
    Topo.pipeline k T.Pipeline.Read_only
      ~gen:(list_gen (List.init n_items (fun i -> Value.Int i)))
      ~filters:(List.init n_filters (fun _ -> T.Transform.identity))
      ~consume:(fun _ -> incr consumed)
  in
  Kernel.run_driver k (fun ctx ->
      Kernel.with_span ctx ~name:"test-root" (fun () -> T.Pipeline.run p));
  (k, p, !consumed)

let test_pipeline_span_tree_matches_predict () =
  let n_filters = 2 and n_items = 8 in
  let k, _, consumed = run_spanned_pipeline ~n_filters ~n_items in
  check Alcotest.int "all items consumed" n_items consumed;
  let obs = Kernel.obs k in
  let all = Obs.spans obs @ Obs.open_spans obs in
  let invokes = List.filter (fun s -> s.Obs.Span.cat = "invoke") all in
  let meter = Kernel.Meter.snapshot k in
  check Alcotest.int "one span per metered invocation" meter.Kernel.Meter.invocations
    (List.length invokes);
  (* Each of the paper's n+1 hops moves every datum once, plus the
     end-of-stream Transfer: (n+1)(items+1) invocations in total. *)
  let pred = T.Pipeline.predict T.Pipeline.Read_only ~n_filters in
  check Alcotest.int "count matches Pipeline.predict"
    (pred.T.Pipeline.invocations_per_datum * (n_items + 1))
    (List.length invokes);
  (* Every invocation chains back to the driver's root span. *)
  let by_id = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.replace by_id s.Obs.Span.id s) all;
  let root =
    match List.find_opt (fun s -> s.Obs.Span.name = "test-root") all with
    | Some s -> s
    | None -> Alcotest.fail "root span missing"
  in
  let rec reaches_root s =
    s.Obs.Span.id = root.Obs.Span.id
    ||
    match s.Obs.Span.parent with
    | None -> false
    | Some p -> ( match Hashtbl.find_opt by_id p with Some ps -> reaches_root ps | None -> false)
  in
  Alcotest.(check bool) "every invoke span chains to the root" true
    (List.for_all reaches_root invokes)

let test_pipeline_flow_meters () =
  let n_filters = 2 and n_items = 8 in
  let _, p, _ = run_spanned_pipeline ~n_filters ~n_items in
  let flow label =
    match List.assoc_opt label p.T.Pipeline.flows with
    | Some fl -> fl
    | None -> Alcotest.failf "no flow meter registered for %s" label
  in
  check Alcotest.int "source emitted all items" n_items (flow "source").Obs.Flow.items_out;
  check Alcotest.int "sink absorbed all items" n_items (flow "sink").Obs.Flow.items_in;
  List.iter
    (fun i ->
      let fl = flow (Printf.sprintf "filter-%d" i) in
      check Alcotest.int "filter in" n_items fl.Obs.Flow.items_in;
      check Alcotest.int "filter out" n_items fl.Obs.Flow.items_out;
      Alcotest.(check bool) "filter batched" true (fl.Obs.Flow.batches > 0))
    [ 1; 2 ]

let test_rtt_histogram_fed () =
  let k, _, _ = run_spanned_pipeline ~n_filters:1 ~n_items:4 in
  let obs = Kernel.obs k in
  match List.assoc_opt "rtt.Transfer" (Obs.histograms obs) with
  | None -> Alcotest.fail "no rtt.Transfer histogram"
  | Some h ->
      check Alcotest.int "one sample per invocation"
        (Kernel.Meter.snapshot k).Kernel.Meter.invocations (Obs.Histogram.count h);
      Alcotest.(check bool) "positive round trips" true (Obs.Histogram.percentile h 0.5 > 0.0)

(* --- Exports ----------------------------------------------------------- *)

let test_jsonl_export_valid () =
  let k, _, _ = run_spanned_pipeline ~n_filters:2 ~n_items:6 in
  let obs = Kernel.obs k in
  let jsonl = Obs.Export.spans_jsonl obs in
  let lines = List.filter (fun l -> l <> "") (String.split_on_char '\n' jsonl) in
  check Alcotest.int "one line per completed span" (Obs.span_count obs) (List.length lines);
  List.iter validate_json lines

let test_chrome_trace_valid () =
  let k, _, _ = run_spanned_pipeline ~n_filters:2 ~n_items:6 in
  let json = Obs.Export.chrome_trace (Kernel.obs k) in
  validate_json json;
  Alcotest.(check bool) "has traceEvents" true
    (Eden_util.Text.contains_sub ~sub:"\"traceEvents\"" json);
  Alcotest.(check bool) "has complete events" true
    (Eden_util.Text.contains_sub ~sub:"\"ph\":\"X\"" json)

let test_export_escapes_hostile_strings () =
  let obs = Obs.create () in
  Obs.enable_spans obs;
  let id =
    Obs.span_begin obs ~name:"quote\"back\\slash"
      ~attrs:[ ("key\n", "tab\tnewline\nnul\x00") ]
      ~cat:"user" ~at:0.0 ()
  in
  Obs.span_end obs id ~at:1.0 ~ok:true;
  String.split_on_char '\n' (Obs.Export.spans_jsonl obs)
  |> List.filter (fun l -> l <> "")
  |> List.iter validate_json;
  validate_json (Obs.Export.chrome_trace obs)

let suite =
  [
    ("histogram: empty", `Quick, test_histogram_empty);
    ("histogram: single value is exact", `Quick, test_histogram_single_value);
    ("histogram: percentiles bounded+monotone", `Quick, test_histogram_percentiles_bounded_and_monotone);
    ("histogram: rejects bad config", `Quick, test_histogram_rejects_bad_config);
    ("span: begin/end and parent edge", `Quick, test_span_begin_end);
    ("span: ring overflow counts drops", `Quick, test_span_ring_overflow);
    ("span: disabled collector records nothing", `Quick, test_spans_disabled_are_free);
    ("pipeline: span tree matches predict", `Quick, test_pipeline_span_tree_matches_predict);
    ("pipeline: flow meters count items", `Quick, test_pipeline_flow_meters);
    ("pipeline: rtt histogram fed", `Quick, test_rtt_histogram_fed);
    ("export: JSONL is valid JSON", `Quick, test_jsonl_export_valid);
    ("export: Chrome trace is valid JSON", `Quick, test_chrome_trace_valid);
    ("export: hostile strings escaped", `Quick, test_export_escapes_hostile_strings);
  ]
