(* Quickstart: build one pipeline under each transput discipline and
   watch the paper's invocation arithmetic come out of the meter.

   Run with: dune exec examples/quickstart.exe *)

open Eden_kernel
module T = Eden_transput
module Topo = Eden_par.Topo
module Cat = Eden_filters.Catalog

let document =
  [
    "C     strip me: this is a comment";
    "      REAL X";
    "C     me too";
    "      X = X + 1";
    "      PRINT *, X";
  ]

let run_once discipline =
  (* Each run gets a fresh kernel: its own virtual clock, network and
     meters. *)
  let kernel = Kernel.create () in

  (* A generator for the source Eject, a consumer for the sink Eject.
     Both run inside their Ejects' worker processes. *)
  let remaining = ref document in
  let gen () =
    match !remaining with
    | [] -> None
    | line :: rest ->
        remaining := rest;
        Some (Value.Str line)
  in
  let received = ref [] in
  let consume v = received := Value.to_str v :: !received in

  let before = Kernel.Meter.snapshot kernel in
  let pipeline =
    Topo.pipeline kernel discipline ~gen
      ~filters:[ Cat.strip_comments (); Cat.number_lines () ]
      ~consume
  in
  (* The driver fiber starts the pumping end and waits for end of
     stream; Kernel.run_driver drives the simulation to quiescence. *)
  Kernel.run_driver kernel (fun _ctx -> T.Pipeline.run pipeline);
  let meter = Kernel.Meter.diff (Kernel.Meter.snapshot kernel) before in

  Printf.printf "--- %s discipline ---\n" (T.Pipeline.discipline_name discipline);
  List.iter print_endline (List.rev !received);
  let n = List.length pipeline.T.Pipeline.filters in
  let pred = T.Pipeline.predict discipline ~n_filters:n in
  Printf.printf "ejects: %d (paper: %d)   invocations: %d (~%d per datum)\n\n"
    (T.Pipeline.entity_count pipeline)
    pred.T.Pipeline.entities meter.Kernel.Meter.invocations
    pred.T.Pipeline.invocations_per_datum

let () =
  print_endline "An Asymmetric Stream Communication System — quickstart\n";
  List.iter run_once T.Pipeline.all_disciplines;
  print_endline
    "Note how the read-only and write-only pipelines use half the\n\
     invocations of the conventional one, with no pipe Ejects."
