(* Benchmark entry point.

   With no argument: every count/virtual-time experiment (Figures 1-4,
   Tables 1-6 of DESIGN.md) followed by the Bechamel wall-clock
   microbenchmarks.  With an argument: just that experiment
   (fig1..fig4, table1..table6, bechamel). *)

open Bechamel
open Toolkit
open Eden_kernel
module T = Eden_transput
module Topo = Eden_par.Topo

(* --- Bechamel wall-clock half of T5 --------------------------------- *)

(* One simulated invocation round trip, including scheduler and network
   machinery. *)
let bench_invocation () =
  let k = Kernel.create () in
  let echo =
    Kernel.create_eject k ~type_name:"echo" (fun _ctx ~passive:_ -> [ ("Echo", Fun.id) ])
  in
  Staged.stage (fun () ->
      Kernel.run_driver k (fun ctx -> ignore (Kernel.call ctx echo ~op:"Echo" Value.Unit)))

(* One intra-Eject channel pass between two fibers. *)
let bench_chan_pass () =
  Staged.stage (fun () ->
      let s = Eden_sched.Sched.create () in
      let ch = Eden_sched.Chan.create ~capacity:1 in
      ignore (Eden_sched.Sched.spawn s (fun () -> Eden_sched.Chan.put ch 42));
      ignore (Eden_sched.Sched.spawn s (fun () -> ignore (Eden_sched.Chan.get ch)));
      Eden_sched.Sched.run s)

(* A whole small pipeline per discipline: the wall-clock cost of
   regenerating a table row. *)
let bench_discipline discipline () =
  Staged.stage (fun () ->
      let k = Kernel.create () in
      let rest = ref (List.init 16 (fun i -> Value.Int i)) in
      let gen () =
        match !rest with
        | [] -> None
        | x :: tl ->
            rest := tl;
            Some x
      in
      let p =
        Topo.pipeline k discipline ~gen
          ~filters:[ T.Transform.identity; T.Transform.identity ]
          ~consume:ignore
      in
      Kernel.run_driver k (fun _ -> T.Pipeline.run p))

let bechamel_tests =
  Test.make_grouped ~name:"eden" ~fmt:"%s %s"
    [
      Test.make ~name:"invocation round trip (simulated)" (bench_invocation ());
      Test.make ~name:"intra-eject chan pass" (bench_chan_pass ());
      Test.make ~name:"pipeline 16x2 read-only" (bench_discipline T.Pipeline.Read_only ());
      Test.make ~name:"pipeline 16x2 write-only" (bench_discipline T.Pipeline.Write_only ());
      Test.make ~name:"pipeline 16x2 conventional"
        (bench_discipline T.Pipeline.Conventional ());
    ]

let run_bechamel () =
  print_newline ();
  print_endline "T5 (wall-clock)  Bechamel microbenchmarks of the simulator machinery";
  print_endline "=====================================================================";
  let ols = Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~kde:None () in
  let raw = Benchmark.all cfg [ Instance.monotonic_clock ] bechamel_tests in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let tbl =
    Eden_util.Table.create ~title:"nanoseconds per run (OLS on monotonic clock)"
      ~columns:[ ("benchmark", Eden_util.Table.Left); ("ns/run", Eden_util.Table.Right) ]
  in
  let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results [] in
  List.iter
    (fun (name, ols) ->
      let est =
        match Analyze.OLS.estimates ols with
        | Some (e :: _) -> Printf.sprintf "%.0f" e
        | Some [] | None -> "n/a"
      in
      Eden_util.Table.add_row tbl [ name; est ])
    (List.sort compare rows);
  Eden_util.Table.print tbl

let () =
  let experiments =
    [
      ("fig1", Experiments.fig1);
      ("fig2", Experiments.fig2);
      ("fig3", Experiments.fig3);
      ("fig4", Experiments.fig4);
      ("table1", Experiments.table1);
      ("table2", Experiments.table2);
      ("table3", Experiments.table3);
      ("table4", Experiments.table4);
      ("table5", Experiments.table5);
      ("table6", Experiments.table6);
      ("ablation", Experiments.ablation);
      ("r1", Experiments.r1);
      ("b1", fun () -> Experiments.b1 ());
      ("e1", fun () -> Experiments.e1 ());
      ("c1", fun () -> Experiments.c1 ());
      ("w1", fun () -> Experiments.w1 ());
      ("a1", fun () -> Experiments.a1 ());
      ("b2", fun () -> Experiments.b2 ());
      ("s1", fun () -> Experiments.s1 ());
      ("quick", Experiments.quick);
      ("smoke", Experiments.smoke);
      ("p1", Experiments.p1);
      ("bechamel", run_bechamel);
    ]
  in
  match Sys.argv with
  | [| _ |] ->
      Experiments.all ();
      run_bechamel ()
  | [| _; name |] -> (
      match List.assoc_opt name experiments with
      | Some f -> f ()
      | None ->
          Printf.eprintf "unknown experiment %S; available: %s\n" name
            (String.concat ", " (List.map fst experiments));
          exit 1)
  | _ ->
      prerr_endline "usage: main.exe [experiment]";
      exit 1
