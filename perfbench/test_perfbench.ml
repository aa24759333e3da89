(* Unit tests for the benchmark's statistics and its compare verdicts. *)

let close = Alcotest.float 1e-9

let test_percentile () =
  let a = Array.init 100 (fun i -> float_of_int (100 - i)) in
  Alcotest.check close "p50 of 1..100" 50. (Stats.percentile a 50.);
  Alcotest.check close "p99 of 1..100" 99. (Stats.percentile a 99.);
  Alcotest.check close "p100 is the max" 100. (Stats.percentile a 100.);
  Alcotest.check close "p0 is the min" 1. (Stats.percentile a 0.);
  Alcotest.check close "nearest rank rounds up" 3. (Stats.percentile [| 1.; 2.; 3.; 4. |] 51.);
  Alcotest.check close "a single sample" 7. (Stats.percentile [| 7. |] 99.)

let test_highest_supported () =
  let opt = Alcotest.(option (float 0.)) in
  Alcotest.check opt "9 samples support nothing" None (Stats.highest_supported 9);
  Alcotest.check opt "20 samples support p50" (Some 50.) (Stats.highest_supported 20);
  Alcotest.check opt "999 samples stop short of p99" (Some 95.) (Stats.highest_supported 999);
  Alcotest.check opt "1000 samples support p99" (Some 99.) (Stats.highest_supported 1000);
  Alcotest.check opt "9999 samples stop short of p99.9" (Some 99.) (Stats.highest_supported 9999);
  Alcotest.check opt "10000 samples support p99.9" (Some 99.9) (Stats.highest_supported 10000)

let test_quartiles () =
  (* Values from Python: statistics.quantiles([1..10], n=4) and
     statistics.quantiles([3, 1, 2], n=4). *)
  let q1, q2, q3 = Stats.quartiles (Array.init 10 (fun i -> float_of_int (i + 1))) in
  Alcotest.check close "q1" 2.75 q1;
  Alcotest.check close "q2" 5.5 q2;
  Alcotest.check close "q3" 8.25 q3;
  let q1, q2, q3 = Stats.quartiles [| 3.; 1.; 2. |] in
  Alcotest.check close "three: q1" 1. q1;
  Alcotest.check close "three: q2" 2. q2;
  Alcotest.check close "three: q3" 3. q3;
  Alcotest.check close "median of an even count" 2.5 (Stats.median [| 4.; 1.; 3.; 2. |]);
  Alcotest.check close "spread" (5.5 /. 5.5)
    (Stats.spread (Array.init 10 (fun i -> float_of_int (i + 1))))

let metric name = Option.get (Spec.find_e2e name)

let verdict =
  Alcotest.testable (fun f v -> Format.pp_print_string f (Compare.verdict_name v)) ( = )

let judge name base fresh =
  let v, _, _ = Compare.judge (metric name) ~base ~fresh in
  v

let steady x = Array.init 10 (fun i -> x *. (1. +. (0.002 *. float_of_int (i - 5))))

let test_verdicts () =
  Alcotest.check verdict "same numbers are unchanged" Compare.Unchanged
    (judge "mb_per_s" (steady 10.) (steady 10.));
  Alcotest.check verdict "throughput 20% lower regresses" Compare.Regressed
    (judge "mb_per_s" (steady 10.) (steady 8.));
  Alcotest.check verdict "throughput 20% higher improves" Compare.Improved
    (judge "mb_per_s" (steady 10.) (steady 12.));
  Alcotest.check verdict "latency 30% higher regresses" Compare.Regressed
    (judge "latency_p50_us" (steady 10.) (steady 13.));
  Alcotest.check verdict "latency 5% higher is within the bound" Compare.Unchanged
    (judge "latency_p50_us" (steady 10.) (steady 10.5));
  let noisy = [| 5.; 15.; 8.; 12.; 10.; 6.; 14.; 9.; 11.; 10. |] in
  Alcotest.check verdict "spread wider than the bound is unresolved" Compare.Unresolved
    (judge "mb_per_s" noisy (Array.map (fun x -> x *. 0.85) noisy));
  Alcotest.check verdict "wide spread, but every new run worse" Compare.Regressed
    (judge "mb_per_s" noisy (Array.map (fun x -> x /. 4.) noisy));
  Alcotest.check verdict "an exact count that rises regresses" Compare.Regressed
    (judge "invocations_per_item" (Array.make 5 8.) (Array.make 5 8.125))

let test_files () =
  let file runs =
    let path = Filename.temp_file "perfbench-test-" ".json" in
    let run (w, v) =
      Json.Obj
        [
          ("workload", Json.Str w);
          ("trace", Json.Bool false);
          ("correct", Json.Bool true);
          ("metrics", Json.Obj [ ("mb_per_s", Json.Num v); ("setup_s", Json.Num 0.5) ]);
        ]
    in
    let oc = open_out path in
    output_string oc (Json.to_string (Json.Obj [ ("runs", Json.Arr (List.map run runs)) ]));
    close_out oc;
    path
  in
  let base = file (List.init 5 (fun i -> ("w", 10. +. (0.01 *. float_of_int i)))) in
  let same = file (List.init 5 (fun i -> ("w", 10. +. (0.01 *. float_of_int i)))) in
  let slower = file (List.init 5 (fun i -> ("w", 7. +. (0.01 *. float_of_int i)))) in
  let code a b = Compare.main ~base_file:a ~new_file:b in
  Alcotest.(check int) "same sets exit 0" 0 (code base same);
  Alcotest.(check int) "a regression exits 1" 1 (code base slower);
  List.iter Sys.remove [ base; same; slower ]

let test_json () =
  let j = Json.of_string {|{"a": [1, 2.5, -3e2], "b": {"c": "x\"y"}, "d": true, "e": null}|} in
  Alcotest.(check string)
    "round trip" {|{"a": [1, 2.5, -300], "b": {"c": "x\"y"}, "d": true, "e": null}|}
    (Json.to_string j);
  Alcotest.(check string) "all digits kept" "0.10000000000000001" (Json.number 0.1)

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "nearest-rank percentile" `Quick test_percentile;
          Alcotest.test_case "highest supported percentile" `Quick test_highest_supported;
          Alcotest.test_case "quartiles as Python computes them" `Quick test_quartiles;
        ] );
      ( "compare",
        [
          Alcotest.test_case "verdicts" `Quick test_verdicts;
          Alcotest.test_case "files and exit code" `Quick test_files;
        ] );
      ("json", [ Alcotest.test_case "parse and print" `Quick test_json ]);
    ]
