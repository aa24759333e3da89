(* The kernel's trace, read from its Obs span log: one span per
   invocation, one instant per lifecycle event. *)

open Eden_kernel
module Topo = Eden_par.Topo
module Obs = Eden_obs.Obs

let check = Alcotest.check

let echo_behaviour _ctx ~passive:_ = [ ("Echo", Fun.id) ]

let traced () =
  let k = Kernel.create () in
  Obs.enable_spans (Kernel.obs k);
  k

let spans k = Obs.spans (Kernel.obs k)

(* Events in virtual-time order: invocations at their start, instants
   where they happened. *)
let events k =
  List.stable_sort
    (fun (a : Obs.Span.t) (b : Obs.Span.t) -> Float.compare a.start b.start)
    (spans k)

let ops k =
  List.filter_map
    (fun (s : Obs.Span.t) -> if s.cat = "invoke" then Some s.name else None)
    (events k)

let test_disabled_by_default () =
  let k = Kernel.create () in
  let uid = Kernel.create_eject k ~type_name:"echo" echo_behaviour in
  Kernel.run_driver k (fun ctx -> ignore (Kernel.invoke ctx uid ~op:"Echo" Value.Unit));
  check Alcotest.int "no events" 0 (List.length (spans k))

let test_invocation_sequence () =
  let k = traced () in
  let uid = Kernel.create_eject k ~type_name:"echo" echo_behaviour in
  Kernel.run_driver k (fun ctx ->
      ignore (Kernel.invoke ctx uid ~op:"Echo" (Value.Int 1));
      ignore (Kernel.invoke ctx uid ~op:"Echo" (Value.Int 2)));
  check Alcotest.(list string) "ops in order" [ "Echo"; "Echo" ] (ops k);
  (* Shape: Invoke, Activate (on first delivery), Invoke; both closed ok. *)
  check Alcotest.(list string) "event shapes"
    [ "invoke"; "activate"; "invoke" ]
    (List.map (fun (s : Obs.Span.t) -> if s.cat = "invoke" then "invoke" else s.name) (events k));
  Alcotest.(check bool) "every invocation replied ok" true
    (List.for_all (fun (s : Obs.Span.t) -> s.ok && not (Obs.Span.is_open s)) (spans k))

let test_timestamps_monotone () =
  let k = traced () in
  let uid = Kernel.create_eject k ~type_name:"echo" echo_behaviour in
  Kernel.run_driver k (fun ctx ->
      for _ = 1 to 3 do
        ignore (Kernel.invoke ctx uid ~op:"Echo" Value.Unit)
      done);
  (* The log is kept in completion order. *)
  let rec monotone = function
    | (a : Obs.Span.t) :: (b :: _ as rest) -> a.stop <= b.stop && monotone rest
    | _ -> true
  in
  Alcotest.(check bool) "non-decreasing" true (monotone (spans k))

let test_lifecycle_events () =
  let k = traced () in
  let uid =
    Kernel.create_eject k ~type_name:"life" (fun ctx ~passive:_ ->
        [
          ( "Save",
            fun _ ->
              Kernel.checkpoint ctx (Value.Int 1);
              Value.Unit );
          ( "Die",
            fun _ ->
              Kernel.destroy ctx;
              Value.Unit );
        ])
  in
  Kernel.run_driver k (fun ctx ->
      ignore (Kernel.call ctx uid ~op:"Save" Value.Unit);
      Kernel.crash k uid;
      ignore (Kernel.call ctx uid ~op:"Die" Value.Unit));
  let count name =
    List.length
      (List.filter (fun (s : Obs.Span.t) -> s.cat = "lifecycle" && s.name = name) (spans k))
  in
  check Alcotest.int "one checkpoint" 1 (count "checkpoint");
  check Alcotest.int "one crash" 1 (count "crash");
  check Alcotest.int "one destroy" 1 (count "destroy");
  check Alcotest.int "two activations" 2 (count "activate")

let test_clear_and_disable () =
  let k = traced () in
  let uid = Kernel.create_eject k ~type_name:"echo" echo_behaviour in
  Kernel.run_driver k (fun ctx -> ignore (Kernel.invoke ctx uid ~op:"Echo" Value.Unit));
  Alcotest.(check bool) "has events" true (spans k <> []);
  Obs.clear_spans (Kernel.obs k);
  check Alcotest.int "cleared" 0 (List.length (spans k));
  Obs.disable_spans (Kernel.obs k);
  Kernel.run_driver k (fun ctx -> ignore (Kernel.invoke ctx uid ~op:"Echo" Value.Unit));
  check Alcotest.int "disabled" 0 (List.length (spans k))

let test_pp_event_renders () =
  let k = traced () in
  let uid = Kernel.create_eject k ~type_name:"echo" echo_behaviour in
  Kernel.run_driver k (fun ctx -> ignore (Kernel.invoke ctx uid ~op:"Echo" Value.Unit));
  let lines = Eden_shell.Shell.render_trace k in
  check Alcotest.int "one line per event, plus the footer" (List.length (spans k) + 1)
    (List.length lines);
  List.iter
    (fun l -> Alcotest.(check bool) "non-empty rendering" true (String.length l > 2))
    lines

(* The trace lets tests assert the paper's interaction patterns
   directly: a read-only pipeline is all Transfer, a write-only one all
   Deposit. *)
let test_pipeline_op_mix () =
  let open Eden_transput in
  let run discipline =
    let k = traced () in
    let rest = ref (List.init 4 (fun i -> Value.Int i)) in
    let gen () =
      match !rest with
      | [] -> None
      | x :: tl ->
          rest := tl;
          Some x
    in
    let p = Topo.pipeline k discipline ~gen ~filters:[ Transform.identity ] ~consume:ignore in
    Kernel.run_driver k (fun _ -> Pipeline.run p);
    List.sort_uniq String.compare (ops k)
  in
  check Alcotest.(list string) "read-only is pure Transfer" [ "Transfer" ]
    (run Pipeline.Read_only);
  check Alcotest.(list string) "write-only is pure Deposit" [ "Deposit" ]
    (run Pipeline.Write_only);
  check Alcotest.(list string) "conventional uses both" [ "Deposit"; "Transfer" ]
    (run Pipeline.Conventional)

let suite =
  [
    ("disabled by default", `Quick, test_disabled_by_default);
    ("invocation sequence", `Quick, test_invocation_sequence);
    ("timestamps monotone", `Quick, test_timestamps_monotone);
    ("lifecycle events", `Quick, test_lifecycle_events);
    ("clear and disable", `Quick, test_clear_and_disable);
    ("pp_event renders", `Quick, test_pp_event_renders);
    ("pipeline op mix", `Quick, test_pipeline_op_mix);
  ]
