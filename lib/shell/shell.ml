module Kernel = Eden_kernel.Kernel
module Uid = Eden_kernel.Uid
module Value = Eden_kernel.Value
module Sched = Eden_sched.Sched
module Ivar = Eden_sched.Ivar
module T = Eden_transput
module Fs = Eden_fs.Unix_fs
module Fse = Eden_fs.Fs_eject
module Cat = Eden_filters.Catalog
module Report = Eden_filters.Report
module Dev = Eden_devices.Devices

type stage = { name : string; args : string list; report : string option }

type ast = stage list

(* --- Lexing --------------------------------------------------------- *)

let lex line =
  let n = String.length line in
  let buf = Buffer.create 16 in
  let toks = ref [] in
  let flush () =
    if Buffer.length buf > 0 then begin
      toks := Buffer.contents buf :: !toks;
      Buffer.clear buf
    end
  in
  let rec go i =
    if i >= n then begin
      flush ();
      Ok (List.rev !toks)
    end
    else
      match line.[i] with
      | ' ' | '\t' ->
          flush ();
          go (i + 1)
      | '|' ->
          flush ();
          toks := "|" :: !toks;
          go (i + 1)
      | '2' when i + 1 < n && line.[i + 1] = '>' && Buffer.length buf = 0 ->
          toks := "2>" :: !toks;
          go (i + 2)
      | ('\'' | '"') as q ->
          let rec quoted j =
            if j >= n then Error "unterminated quote"
            else if line.[j] = q then begin
              (* Quoted text is one token even when empty. *)
              toks := Buffer.contents buf :: !toks;
              Buffer.clear buf;
              go (j + 1)
            end
            else begin
              Buffer.add_char buf line.[j];
              quoted (j + 1)
            end
          in
          flush ();
          quoted (i + 1)
      | c ->
          Buffer.add_char buf c;
          go (i + 1)
  in
  go 0

(* --- Parsing -------------------------------------------------------- *)

let split_stages toks =
  let rec go current acc = function
    | [] -> List.rev (List.rev current :: acc)
    | "|" :: rest -> go [] (List.rev current :: acc) rest
    | tok :: rest -> go (tok :: current) acc rest
  in
  go [] [] toks

let parse_stage words =
  let rec strip ws report acc =
    match ws with
    | [] -> Ok (List.rev acc, report)
    | "2>" :: name :: rest ->
        if report <> None then Error "at most one report redirection per stage"
        else strip rest (Some name) acc
    | [ "2>" ] -> Error "2> expects a window name"
    | w :: rest -> strip rest report (w :: acc)
  in
  match strip words None [] with
  | Error _ as e -> e
  | Ok ([], _) -> Error "empty stage"
  | Ok (name :: args, report) -> Ok { name; args; report }

let parse line =
  match lex line with
  | Error _ as e -> e |> Result.map (fun _ -> [])
  | Ok [] -> Error "empty pipeline"
  | Ok toks -> (
      let rec stages acc = function
        | [] -> Ok (List.rev acc)
        | words :: rest -> (
            match parse_stage words with
            | Ok s -> stages (s :: acc) rest
            | Error _ as e -> e |> Result.map (fun _ -> []))
      in
      match stages [] (split_stages toks) with
      | Error _ as e -> e
      | Ok ss when List.length ss < 2 -> Error "a pipeline needs at least a source and a sink"
      | Ok ss -> Ok ss)

(* --- Environment ---------------------------------------------------- *)

type env = { kernel : Kernel.t; fs : Fs.t; fse : Uid.t }

let make_env ?kernel () =
  let kernel = match kernel with Some k -> k | None -> Kernel.create () in
  let fs = Fs.create () in
  let fse = Fse.create kernel fs in
  { kernel; fs; fse }

type outcome = {
  rendered : string list;
  windows : (string * string list) list;
  invocations : int;
  entities : int;
}

exception Shell_error of string

let fail fmt = Printf.ksprintf (fun m -> raise (Shell_error m)) fmt

let int_arg name a =
  match int_of_string_opt a with Some n when n >= 0 -> n | _ -> fail "%s: bad count %S" name a

let rate_arg = function
  | [] -> 0.0
  | [ r ] -> ( match float_of_string_opt r with Some f when f >= 0.0 -> f | _ -> fail "bad rate %S" r)
  | _ -> fail "too many arguments"

let list_gen items =
  let rest = ref items in
  fun () ->
    match !rest with
    | [] -> None
    | x :: tl ->
        rest := tl;
        Some (Value.Str x)

(* A generator for each source form; [file] reads the FS eagerly, which
   the read-only elaboration avoids by using the real bootstrap. *)
let gen_of_source env stage =
  match stage.name, stage.args with
  | "lines", ws -> list_gen ws
  | "count", [ n ] -> list_gen (List.init (int_arg "count" n) (fun i -> Printf.sprintf "line %d" (i + 1)))
  | "count", [ n; prefix ] ->
      list_gen (List.init (int_arg "count" n) (fun i -> Printf.sprintf "%s%d" prefix (i + 1)))
  | "date", [ n ] ->
      let remaining = ref (int_arg "date" n) in
      fun () ->
        if !remaining <= 0 then None
        else begin
          decr remaining;
          Some (Value.Str (Printf.sprintf "virtual time %.3f" (Sched.time ())))
        end
  | "file", [ path ] -> (
      match Fs.read_file env.fs path with
      | content -> list_gen (Eden_util.Text.split_lines content)
      | exception Fs.Error (e, p) -> fail "%s: %s" p (Fs.error_message e))
  | "random", [ n ] ->
      let remaining = ref (int_arg "random" n) in
      let prng = Eden_util.Prng.create 0xC0FFEEL in
      let vocabulary = [| "alpha"; "bravo"; "charlie"; "delta"; "echo"; "foxtrot" |] in
      fun () ->
        if !remaining <= 0 then None
        else begin
          decr remaining;
          Some
            (Value.Str
               (String.concat " "
                  (List.init 4 (fun _ -> Eden_util.Prng.choose prng vocabulary))))
        end
  | ("count" | "date" | "file" | "random"), _ -> fail "%s: bad arguments" stage.name
  | name, _ -> fail "unknown source: %s" name

let is_source s = List.mem s.name [ "lines"; "count"; "date"; "file"; "random" ]
let is_sink s = List.mem s.name [ "terminal"; "null"; "out"; "printer" ]

let transform_of_filter stage =
  match Cat.by_name stage.name stage.args with
  | Ok tr -> tr
  | Error msg -> fail "%s" msg

(* --- Read-only elaboration ------------------------------------------ *)

let run_read_only env ctx (source, middle, sink) =
  let windows : (string * (string * Uid.t * T.Channel.t) list ref) list ref = ref [] in
  let watch name entry =
    match List.assoc_opt name !windows with
    | Some l -> l := entry :: !l
    | None -> windows := (name, ref [ entry ]) :: !windows
  in
  let source_uid =
    match source.report with
    | Some w ->
        let uid = Report.source_ro env.kernel ~name:source.name ~label:source.name
            (gen_of_source env source)
        in
        watch w (source.name, uid, T.Channel.report);
        uid
    | None -> (
        match source.name, source.args with
        | "file", [ path ] -> Fse.new_stream ctx ~fs:env.fse path
        | _ -> T.Stage.source_ro env.kernel ~name:source.name (gen_of_source env source))
  in
  let last =
    List.fold_left
      (fun upstream stage ->
        let tr = transform_of_filter stage in
        match stage.report with
        | Some w ->
            let uid =
              Report.filter_ro env.kernel ~name:stage.name ~upstream
                (Report.with_progress ~label:stage.name tr)
            in
            watch w (stage.name, uid, T.Channel.report);
            uid
        | None -> T.Stage.filter_ro env.kernel ~name:stage.name ~upstream tr)
      source_uid middle
  in
  if sink.report <> None then fail "sinks do not produce reports";
  let window_displays =
    List.map
      (fun (name, entries) ->
        let d = Dev.report_window_ro env.kernel ~name ~watch:(List.rev !entries) () in
        Kernel.poke env.kernel d.Dev.uid;
        (name, d))
      !windows
  in
  let rendered =
    match sink.name, sink.args with
    | "terminal", args ->
        let d = Dev.terminal_ro env.kernel ~rate:(rate_arg args) ~upstream:last () in
        Kernel.poke env.kernel d.Dev.uid;
        Ivar.read d.Dev.done_;
        d.Dev.lines ()
    | "null", [] ->
        let d = Dev.null_sink_ro env.kernel ~upstream:last () in
        Kernel.poke env.kernel d.Dev.uid;
        Ivar.read d.Dev.done_;
        []
    | "out", [ path ] ->
        let writer = Fse.use_stream ctx ~fs:env.fse path last in
        Fse.await_writer ctx writer;
        []
    | "printer", args ->
        let p = Dev.printer env.kernel ~rate:(rate_arg args) () in
        Dev.print ctx ~printer:p.Dev.puid last;
        p.Dev.paper ()
    | name, _ -> fail "unknown or malformed sink: %s" name
  in
  List.iter (fun (_, d) -> Ivar.read d.Dev.done_) window_displays;
  (rendered, List.map (fun (n, d) -> (n, d.Dev.lines ())) window_displays)

(* --- Write-only elaboration ------------------------------------------ *)

let run_write_only env _ctx (source, middle, sink) =
  (* Count reporters per window before building, since a write-only
     window needs to know how many end-of-stream marks to expect. *)
  let reporters name =
    List.length
      (List.filter (fun s -> s.report = Some name) (source :: middle))
  in
  let window_names =
    List.sort_uniq String.compare
      (List.filter_map (fun s -> s.report) (source :: middle))
  in
  let window_displays =
    List.map
      (fun name -> (name, Dev.report_window_wo env.kernel ~name ~writers:(reporters name) ()))
      window_names
  in
  let window_uid name =
    match List.assoc_opt name window_displays with
    | Some d -> d.Dev.uid
    | None -> assert false
  in
  if sink.report <> None then fail "sinks do not produce reports";
  let sink_display, sink_uid, collect =
    match sink.name, sink.args with
    | "terminal", args ->
        let d = Dev.terminal_wo env.kernel ~rate:(rate_arg args) () in
        (Some d, d.Dev.uid, fun () -> d.Dev.lines ())
    | "null", [] ->
        let done_ = Ivar.create () in
        let uid = T.Stage.sink_wo env.kernel ~on_done:(fun () -> Ivar.fill done_ ()) ignore in
        ( Some { Dev.uid; lines = (fun () -> []); done_ },
          uid,
          fun () -> [] )
    | "out", [ path ] ->
        let acc = ref [] in
        let done_ = Ivar.create () in
        let uid =
          T.Stage.sink_wo env.kernel
            ~on_done:(fun () ->
              Fs.write_file env.fs path (Eden_util.Text.join_lines (List.rev !acc));
              Ivar.fill done_ ())
            (fun v -> acc := Value.to_str v :: !acc)
        in
        (Some { Dev.uid; lines = (fun () -> []); done_ }, uid, fun () -> [])
    | "printer", _ -> fail "the printer is a reading device; use the read-only discipline"
    | name, _ -> fail "unknown or malformed sink: %s" name
  in
  let first =
    List.fold_left
      (fun downstream stage ->
        let tr = transform_of_filter stage in
        match stage.report with
        | Some w ->
            Report.filter_wo env.kernel ~name:stage.name ~downstream
              ~report_to:(window_uid w)
              (Report.with_progress ~label:stage.name tr)
        | None -> T.Stage.filter_wo env.kernel ~name:stage.name ~downstream tr)
      sink_uid (List.rev middle)
  in
  let source_uid =
    match source.report with
    | Some w ->
        Report.source_wo env.kernel ~name:source.name ~downstream:first
          ~report_to:(window_uid w) ~label:source.name (gen_of_source env source)
    | None -> T.Stage.source_wo env.kernel ~name:source.name ~downstream:first
        (gen_of_source env source)
  in
  Kernel.poke env.kernel source_uid;
  (match sink_display with Some d -> Ivar.read d.Dev.done_ | None -> ());
  List.iter (fun (_, d) -> Ivar.read d.Dev.done_) window_displays;
  (collect (), List.map (fun (n, d) -> (n, d.Dev.lines ())) window_displays)

(* --- Conventional elaboration ---------------------------------------- *)

let run_conventional env _ctx (source, middle, sink) =
  if List.exists (fun s -> s.report <> None) (source :: middle @ [ sink ]) then
    fail "report streams need the asymmetric disciplines";
  let gen = gen_of_source env source in
  let filters = List.map transform_of_filter middle in
  let acc = ref [] in
  let consume v = acc := Value.to_str v :: !acc in
  let p = T.Pipeline.build env.kernel T.Pipeline.Conventional ~gen ~filters ~consume in
  T.Pipeline.run p;
  let lines = List.rev !acc in
  match sink.name, sink.args with
  | "terminal", _ -> (lines, [])
  | "null", [] -> ([], [])
  | "out", [ path ] ->
      Fs.write_file env.fs path (Eden_util.Text.join_lines lines);
      ([], [])
  | "printer", _ -> fail "the printer is a reading device; use the read-only discipline"
  | name, _ -> fail "unknown or malformed sink: %s" name

(* --- Driver ----------------------------------------------------------- *)

(* Builtin renderings (`trace`, `stats`).  These live here rather than
   in the edensh binary so the exact lines a session prints are
   testable: the binary just [List.iter print_endline]s them. *)

module Obs = Eden_obs.Obs

let render_trace kernel =
  let obs = Kernel.obs kernel in
  let attr (s : Obs.Span.t) k = Option.value ~default:"?" (List.assoc_opt k s.attrs) in
  let events =
    List.filter_map
      (fun (s : Obs.Span.t) ->
        match s.cat with
        | "invoke" ->
            Some
              (Printf.sprintf "  %8.3f invoke %s -> %s (%.3f, %s)" s.start s.name (attr s "dst")
                 (Obs.Span.duration s)
                 (if s.ok then "ok" else "error"))
        | "lifecycle" -> Some (Printf.sprintf "  %8.3f %s %s" s.start s.name (attr s "uid"))
        | _ -> None)
      (List.stable_sort
         (fun (a : Obs.Span.t) (b : Obs.Span.t) -> Float.compare a.start b.start)
         (Obs.spans obs))
  in
  events
  @ [
      Printf.sprintf "[%d event(s) retained, %d dropped, %d invocation(s) open]"
        (List.length events) (Obs.dropped_spans obs)
        (List.length (Obs.open_spans obs));
    ]

let render_stats kernel =
  let obs = Kernel.obs kernel in
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  Format.fprintf ppf "%a@." Kernel.Meter.pp (Kernel.Meter.snapshot kernel);
  (match Kernel.op_counts kernel with
  | [] -> ()
  | ops ->
      Format.fprintf ppf "ops:@.";
      List.iter (fun (op, n) -> Format.fprintf ppf "  %-20s %d@." op n) ops);
  (match Obs.histograms obs with
  | [] -> ()
  | hs ->
      Format.fprintf ppf "histograms:@.";
      List.iter (fun (name, h) -> Format.fprintf ppf "  %-20s %a@." name Obs.Histogram.pp h) hs);
  (match Obs.stages obs with
  | [] -> ()
  | ss ->
      Format.fprintf ppf "stages:@.";
      List.iter (fun fl -> Format.fprintf ppf "  %a@." Obs.Flow.pp fl) ss);
  Format.fprintf ppf "spans: %d closed (%d evicted), %d open@." (Obs.span_count obs)
    (Obs.dropped_spans obs)
    (List.length (Obs.open_spans obs));
  Format.pp_print_flush ppf ();
  (* Split the formatted block into lines; drop the trailing empty
     fragment the final newline leaves behind. *)
  match List.rev (String.split_on_char '\n' (Buffer.contents buf)) with
  | "" :: rest -> List.rev rest
  | all -> List.rev all

let render_tenants kernel =
  (* Group the ["tenant.<name>.<counter>"] flow stages Eden_tenant
     registers; the shell reads them straight out of Obs so it needs no
     dependency on (or knowledge of) the tenant registry itself. *)
  let obs = Kernel.obs kernel in
  let order = ref [] in
  let tbl : (string, (string * Obs.Flow.stage) list ref) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (s : Obs.Flow.stage) ->
      let label = s.Obs.Flow.label in
      let prefix = "tenant." in
      let plen = String.length prefix in
      if String.length label > plen && String.sub label 0 plen = prefix then begin
        let rest = String.sub label plen (String.length label - plen) in
        match String.rindex_opt rest '.' with
        | None -> ()
        | Some i ->
            let name = String.sub rest 0 i in
            let counter = String.sub rest (i + 1) (String.length rest - i - 1) in
            let entry =
              match Hashtbl.find_opt tbl name with
              | Some l -> l
              | None ->
                  let l = ref [] in
                  Hashtbl.add tbl name l;
                  order := name :: !order;
                  l
            in
            entry := (counter, s) :: !entry
      end)
    (Obs.stages obs);
  let count counters c =
    match List.assoc_opt c counters with
    | Some s -> s.Obs.Flow.items_in
    | None -> 0
  in
  List.concat_map
    (fun name ->
      let counters = !(Hashtbl.find tbl name) in
      let gauge c f = match List.assoc_opt c counters with Some s -> f s | None -> 0 in
      [
        Printf.sprintf
          "tenant %s: violations forged_id=%d stolen_channel=%d replayed_transfer=%d \
           credit_hoard=%d revoked_use=%d"
          name (count counters "forged_id")
          (count counters "stolen_channel")
          (count counters "replayed_transfer")
          (count counters "credit_hoard")
          (count counters "revoked_use");
        Printf.sprintf "  credits outstanding=%d peak=%d reclaimed=%d; caps live=%d"
          (gauge "credits" Obs.Flow.occupancy)
          (gauge "credits" (fun s -> s.Obs.Flow.max_occupancy))
          (count counters "credits_reclaimed")
          (gauge "caps" Obs.Flow.occupancy);
      ])
    (List.rev !order)

let run env ?(discipline = T.Pipeline.Read_only) line =
  match parse line with
  | Error _ as e -> e |> Result.map (fun _ -> assert false)
  | Ok stages -> (
      let source = List.hd stages in
      let rest = List.tl stages in
      let sink = List.nth rest (List.length rest - 1) in
      let middle = List.filteri (fun i _ -> i < List.length rest - 1) rest in
      if not (is_source source) then Error (Printf.sprintf "first stage must be a source, got %s" source.name)
      else if not (is_sink sink) then Error (Printf.sprintf "last stage must be a sink, got %s" sink.name)
      else
        let created0 = (Kernel.Meter.snapshot env.kernel).Kernel.Meter.ejects_created in
        let result = ref (Error "pipeline did not run") in
        let runner =
          match discipline with
          | T.Pipeline.Read_only -> run_read_only
          | T.Pipeline.Write_only -> run_write_only
          | T.Pipeline.Conventional -> run_conventional
        in
        match
          Kernel.run_driver env.kernel (fun ctx ->
              let before = Kernel.Meter.snapshot env.kernel in
              match runner env ctx (source, middle, sink) with
              | rendered, windows ->
                  let after = Kernel.Meter.snapshot env.kernel in
                  result :=
                    Ok
                      {
                        rendered;
                        windows;
                        invocations =
                          after.Kernel.Meter.invocations - before.Kernel.Meter.invocations;
                        entities = after.Kernel.Meter.ejects_created - created0;
                      }
              | exception Shell_error m -> result := Error m
              | exception Kernel.Eden_error m -> result := Error m)
        with
        | () -> !result
        | exception Failure m -> Error ("pipeline crashed: " ^ m))
