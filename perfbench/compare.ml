(* Verdicts between two sets of benchmark runs, per workload and
   end-to-end metric.

   A set is a file written by [main.exe bench --out FILE]: every run
   appends {"workload", "seed", "trace", "correct", "metrics"} to its
   "runs" array.  Traced runs are skipped — end-to-end numbers always
   come from untraced runs. *)

type verdict = Improved | Unchanged | Regressed | Unresolved

let verdict_name = function
  | Improved -> "improved"
  | Unchanged -> "unchanged"
  | Regressed -> "regressed"
  | Unresolved -> "unresolved"

type row = {
  workload : string;
  metric : Spec.e2e;
  base_median : float;
  new_median : float;
  change : float;  (** signed relative change of the median, new vs base *)
  spread : float;  (** the wider of the two sets' quartile spreads *)
  verdict : verdict;
}

(* Relative change in the direction that makes the metric worse. *)
let worsening (m : Spec.e2e) ~base ~fresh =
  if base = 0. then 0.
  else
    match m.better with
    | Spec.Lower -> (fresh -. base) /. base
    | Spec.Higher -> (base -. fresh) /. base

let strictly_worse (m : Spec.e2e) a b =
  match m.better with Spec.Lower -> a > b | Spec.Higher -> a < b

(* Where the run-to-run spread is wider than the bound the comparison
   cannot tell a change from noise, so the verdict is [Unresolved] —
   unless every new run reads better (or every one worse) than every
   base run. *)
let judge (m : Spec.e2e) ~base ~fresh =
  let mb = Stats.median base and mn = Stats.median fresh in
  let worse = worsening m ~base:mb ~fresh:mn in
  let spread = Float.max (Stats.spread base) (Stats.spread fresh) in
  let every p = Array.for_all (fun n -> Array.for_all (fun b -> p n b) base) fresh in
  let all_worse = every (strictly_worse m) in
  let all_better = every (fun n b -> strictly_worse m b n) in
  let verdict =
    if spread <= m.bound then
      if worse > m.bound then Regressed else if -.worse > m.bound then Improved else Unchanged
    else if all_better then if -.worse > m.bound then Improved else Unchanged
    else if all_worse && worse > m.bound then Regressed
    else Unresolved
  in
  let change = if mb = 0. then 0. else (mn -. mb) /. mb in
  (verdict, change, spread)

type run = { r_workload : string; r_correct : bool; r_values : (string * float) list }

let runs_of_json j =
  let runs = match Json.member "runs" j with Some (Json.Arr l) -> l | _ -> [] in
  List.filter_map
    (fun r ->
      match (Json.member "workload" r, Json.member "trace" r, Json.member "metrics" r) with
      | Some (Json.Str w), Some (Json.Bool false), Some (Json.Obj ms) ->
          let values =
            List.filter_map (fun (k, v) -> match v with Json.Num f -> Some (k, f) | _ -> None) ms
          in
          let correct = Json.member "correct" r = Some (Json.Bool true) in
          Some { r_workload = w; r_correct = correct; r_values = values }
      | _ -> None)
    runs

let workloads_of runs = List.sort_uniq String.compare (List.map (fun r -> r.r_workload) runs)

let values runs ~workload ~metric =
  Array.of_list
    (List.filter_map
       (fun r -> if r.r_workload = workload then List.assoc_opt metric r.r_values else None)
       runs)

(* Rows for every workload and end-to-end metric present in both sets. *)
let rows ~base ~fresh =
  List.concat_map
    (fun workload ->
      List.filter_map
        (fun (m : Spec.e2e) ->
          let b = values base ~workload ~metric:m.name in
          let n = values fresh ~workload ~metric:m.name in
          if Array.length b = 0 || Array.length n = 0 then None
          else
            let verdict, change, spread = judge m ~base:b ~fresh:n in
            Some
              {
                workload;
                metric = m;
                base_median = Stats.median b;
                new_median = Stats.median n;
                change;
                spread;
                verdict;
              })
        Spec.end_to_end)
    (List.filter (fun w -> List.mem w (workloads_of fresh)) (workloads_of base))

let print_rows rows =
  Printf.printf "%-16s %-22s %14s %14s %9s %8s  %s\n" "workload" "metric" "base median"
    "new median" "change" "spread" "verdict";
  List.iter
    (fun r ->
      Printf.printf "%-16s %-22s %14.6g %14.6g %+8.2f%% %7.2f%%  %s (bound %.0f%%)\n" r.workload
        r.metric.Spec.name r.base_median r.new_median (r.change *. 100.) (r.spread *. 100.)
        (verdict_name r.verdict) (r.metric.Spec.bound *. 100.))
    rows

(* Prints the comparison and returns the process exit code: 1 when any
   metric regressed or any new run failed its output checks. *)
let main ~base_file ~new_file =
  let base = runs_of_json (Json.read_file base_file) in
  let fresh = runs_of_json (Json.read_file new_file) in
  let rs = rows ~base ~fresh in
  print_rows rs;
  let incorrect = List.length (List.filter (fun r -> not r.r_correct) fresh) in
  if incorrect > 0 then Printf.printf "%d new run(s) failed their output checks\n" incorrect;
  if rs = [] then print_endline "no workload appears in both sets";
  let regressed = List.exists (fun r -> r.verdict = Regressed) rs in
  if regressed || incorrect > 0 || rs = [] then 1 else 0
