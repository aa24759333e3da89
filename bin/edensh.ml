(* edensh: a shell over the Eden transput simulation.

   Pipelines are elaborated into Ejects under the chosen transput
   discipline, run on the discrete-event kernel, and their output (and
   any report windows) printed.  The environment persists across lines
   of a session, so `lines a b | out /f` followed by `file /f | terminal`
   behaves like a real file system. *)

module Shell = Eden_shell.Shell
module Fs = Eden_fs.Unix_fs
module T = Eden_transput

let demo_files =
  [
    ( "/usr/demo/prog.f",
      "C     A FORTRAN program with comments\n\
       \      REAL X\n\
       C     initialise\n\
       \      X = 1.0\n\
       \      PRINT *, X\n\
       C     end\n\
       \      END\n" );
    ( "/usr/demo/poem.txt",
      "the quick brown fox\njumps over\nthe lazy dog\n" );
    ( "/etc/motd", "welcome to eden\nasymmetric streams ahead\n" );
  ]

let make_env () =
  let env = Shell.make_env () in
  List.iter
    (fun (path, content) ->
      Fs.mkdir_p env.Shell.fs (Filename.dirname path);
      Fs.write_file env.Shell.fs path content)
    demo_files;
  env

let discipline_of_string = function
  | "ro" | "read-only" -> Ok T.Pipeline.Read_only
  | "wo" | "write-only" -> Ok T.Pipeline.Write_only
  | "conv" | "conventional" -> Ok T.Pipeline.Conventional
  | s -> Error (Printf.sprintf "unknown discipline %S (ro | wo | conv)" s)

let print_outcome ~show_meter o =
  List.iter print_endline o.Shell.rendered;
  List.iter
    (fun (name, lines) ->
      Printf.printf "--- window %s ---\n" name;
      List.iter print_endline lines)
    o.Shell.windows;
  if show_meter then
    Printf.printf "[%d invocations, %d ejects]\n" o.Shell.invocations o.Shell.entities

module K = Eden_kernel.Kernel
module Obs = Eden_obs.Obs

(* `trace`: the last pipeline's invocation spans and lifecycle events. *)
let print_trace kernel = List.iter print_endline (Shell.render_trace kernel)

(* `stats`: cumulative meters, histograms and flow meters for the whole
   session, and the last pipeline's span counts. *)
let print_stats kernel = List.iter print_endline (Shell.render_stats kernel)

(* `tenants`: per-namespace violation counters and credit gauges. *)
let print_tenants kernel =
  match Shell.render_tenants kernel with
  | [] -> print_endline "no tenant namespaces installed"
  | lines -> List.iter print_endline lines

let run_line env ~discipline ~show_meter line =
  let kernel = env.Shell.kernel in
  match String.trim line with
  | "" -> true
  | "exit" | "quit" -> false
  | "help" ->
      Printf.printf
        "pipeline: source | filter ... | sink       (stage 2> window for reports)\n\
         sources:  lines w..., count n [prefix], file /path, date n, random n\n\
         sinks:    terminal [rate], null, out /path, printer [rate]\n\
         filters:  %s\n\
         builtins: trace (last run's spans), stats (session meters),\n\
         \          tenants (per-namespace violation meters)\n"
        (String.concat ", " Eden_filters.Catalog.names);
      true
  | "trace" ->
      print_trace kernel;
      true
  | "stats" ->
      print_stats kernel;
      true
  | "tenants" ->
      print_tenants kernel;
      true
  | line ->
      Obs.clear_spans (K.obs kernel);
      (match Shell.run env ~discipline line with
      | Ok o -> print_outcome ~show_meter o
      | Error msg -> Printf.printf "error: %s\n" msg);
      true

open Cmdliner

let discipline_arg =
  let parse s = Result.map_error (fun m -> `Msg m) (discipline_of_string s) in
  let print ppf d = Format.pp_print_string ppf (T.Pipeline.discipline_name d) in
  Arg.(
    value
    & opt (conv (parse, print)) T.Pipeline.Read_only
    & info [ "d"; "discipline" ] ~docv:"DISCIPLINE"
        ~doc:"Transput discipline: ro (read-only), wo (write-only) or conv (conventional).")

let command_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "c"; "command" ] ~docv:"PIPELINE" ~doc:"Run one pipeline and exit.")

let script_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "f"; "file" ] ~docv:"SCRIPT" ~doc:"Run pipelines from a host file, one per line.")

let meter_arg =
  Arg.(value & flag & info [ "m"; "meter" ] ~doc:"Print invocation and Eject counts after each run.")

let trace_arg =
  Arg.(value & flag & info [ "t"; "trace" ] ~doc:"Print the last run's spans after each run.")

let main discipline command script show_meter show_trace =
  let env = make_env () in
  let kernel = env.Shell.kernel in
  (* Spans are on by default: they live in a bounded ring, so an
     interactive session can always ask `trace`/`stats` after the fact
     without having opted in up front. *)
  Obs.enable_spans (K.obs kernel);
  let run_and_trace line =
    let keep_going = run_line env ~discipline ~show_meter line in
    if show_trace then print_trace kernel;
    keep_going
  in
  match command, script with
  | Some line, _ -> ignore (run_and_trace line)
  | None, Some path ->
      let ic = open_in path in
      let rec go () =
        match input_line ic with
        | exception End_of_file -> close_in ic
        | line ->
            let t = String.trim line in
            if t <> "" && not (String.length t > 0 && t.[0] = '#') then begin
              Printf.printf "eden> %s\n" t;
              ignore (run_and_trace t)
            end;
            go ()
      in
      go ()
  | None, None ->
      Printf.printf
        "edensh — asymmetric stream transput (%s discipline). Type 'help' or 'exit'.\n"
        (T.Pipeline.discipline_name discipline);
      let rec loop () =
        print_string "eden> ";
        match read_line () with
        | exception End_of_file -> ()
        | line -> if run_and_trace line then loop ()
      in
      loop ()

let cmd =
  let doc = "a shell over the Eden asymmetric stream transput simulation" in
  Cmd.v
    (Cmd.info "edensh" ~doc)
    Term.(const main $ discipline_arg $ command_arg $ script_arg $ meter_arg $ trace_arg)

let () = exit (Cmd.eval cmd)
