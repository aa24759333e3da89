module Value = Eden_kernel.Value
module Kernel = Eden_kernel.Kernel
module T = Eden_transput

type address = Line of int | Pattern of Re.re

type range = Always | At of address | Between of address * address

type action =
  | Substitute of { pat : Re.re; replacement : string; global : bool }
  | Delete
  | Print
  | Transliterate of { from : string; into : string }
  | Quit
  | Insert of string
  | Append of string

type command = { range : range; action : action; mutable active : bool }
(* [active] tracks Between ranges: set when the start address matches,
   cleared after the end address matches. *)

type script = command list

(* --- parsing --------------------------------------------------------- *)

let compile_re src =
  match Re.Pcre.re src with
  | re -> Ok (Re.compile re)
  | exception _ -> Error (Printf.sprintf "bad regular expression /%s/" src)

(* Split "X<body>X<body>X..." on the delimiter X, honouring \X escapes. *)
let split_delimited line start =
  let delim = line.[start] in
  let n = String.length line in
  let parts = ref [] in
  let buf = Buffer.create 16 in
  let rec go i =
    if i >= n then (List.rev !parts, n)
    else if line.[i] = '\\' && i + 1 < n && line.[i + 1] = delim then begin
      Buffer.add_char buf delim;
      go (i + 2)
    end
    else if line.[i] = delim then begin
      parts := Buffer.contents buf :: !parts;
      Buffer.clear buf;
      go (i + 1)
    end
    else begin
      Buffer.add_char buf line.[i];
      go (i + 1)
    end
  in
  (* The char at [start] opens the first field. *)
  let fields, stop = go (start + 1) in
  (fields, Buffer.contents buf, stop)

let parse_address s =
  if s = "" then Error "empty address"
  else if String.for_all (fun c -> c >= '0' && c <= '9') s then Ok (Line (int_of_string s))
  else if s = "$" then Error "$ addressing needs the whole stream buffered; not supported"
  else if String.length s >= 2 && s.[0] = '/' && s.[String.length s - 1] = '/' then
    Result.map (fun re -> Pattern re) (compile_re (String.sub s 1 (String.length s - 2)))
  else Error (Printf.sprintf "bad address %S" s)

(* Addresses prefix the command: "3", "1,5", "/x/", "/a/,/b/". *)
let parse_range line =
  let n = String.length line in
  (* Scan an address token starting at i; returns (token, next). *)
  let scan i =
    if i < n && line.[i] = '/' then
      match String.index_from_opt line (i + 1) '/' with
      | Some j -> Some (String.sub line i (j - i + 1), j + 1)
      | None -> None
    else begin
      let rec digits j = if j < n && line.[j] >= '0' && line.[j] <= '9' then digits (j + 1) else j in
      let j = digits i in
      if j > i then Some (String.sub line i (j - i), j) else None
    end
  in
  match scan 0 with
  | None -> Ok (Always, 0)
  | Some (first, i) -> (
      match parse_address first with
      | Error e -> Error e
      | Ok a1 ->
          if i < n && line.[i] = ',' then
            match scan (i + 1) with
            | None -> Error "expected a second address after ,"
            | Some (second, j) -> (
                match parse_address second with
                | Error e -> Error e
                | Ok a2 -> Ok (Between (a1, a2), j))
          else Ok (At a1, i))

let strip_leading line i =
  let n = String.length line in
  let rec go i = if i < n && (line.[i] = ' ' || line.[i] = '\t') then go (i + 1) else i in
  go i

let parse_command line =
  match parse_range line with
  | Error e -> Error e
  | Ok (range, i) -> (
      let i = strip_leading line i in
      let n = String.length line in
      if i >= n then Error "missing command"
      else
        let mk action = Ok [ { range; action; active = false } ] in
        match line.[i] with
        | 'd' -> mk Delete
        | 'p' -> mk Print
        | 'q' -> mk Quit
        | 'i' when i + 1 < n && line.[i + 1] = '\\' -> mk (Insert (String.sub line (i + 2) (n - i - 2)))
        | 'a' when i + 1 < n && line.[i + 1] = '\\' -> mk (Append (String.sub line (i + 2) (n - i - 2)))
        | 's' when i + 1 < n -> (
            let fields, tail, _stop = split_delimited line (i + 1) in
            match fields with
            | [ pat; replacement ] ->
                let global = String.trim tail = "g" in
                if (not global) && String.trim tail <> "" then
                  Error (Printf.sprintf "unknown s flags %S" tail)
                else
                  Result.map
                    (fun pat -> [ { range; action = Substitute { pat; replacement; global }; active = false } ])
                    (compile_re pat)
            | _ -> Error "s needs s/pattern/replacement/")
        | 'y' when i + 1 < n -> (
            let fields, _tail, _stop = split_delimited line (i + 1) in
            match fields with
            | [ from; into ] when String.length from = String.length into ->
                mk (Transliterate { from; into })
            | [ _; _ ] -> Error "y sets must have equal length"
            | _ -> Error "y needs y/set1/set2/")
        | c -> Error (Printf.sprintf "unknown command %c" c))

let parse_script lines =
  let rec go acc lineno = function
    | [] -> Ok (List.concat (List.rev acc))
    | l :: rest ->
        let t = String.trim l in
        if t = "" || t.[0] = '#' then go acc (lineno + 1) rest
        else (
          match parse_command t with
          | Ok cmds -> go (cmds :: acc) (lineno + 1) rest
          | Error e -> Error (Printf.sprintf "script line %d (%s): %s" lineno t e))
  in
  go [] 1 lines

(* --- execution ------------------------------------------------------- *)

let address_matches addr lineno line =
  match addr with Line n -> n = lineno | Pattern re -> Re.execp re line

(* Between semantics: the start line opens the range without consulting
   the end address (so /a/,/a/ runs to the next /a/); from the following
   line on, a line matching the end address closes the range and is the
   last line in it. *)
let range_matches cmd lineno line =
  match cmd.range with
  | Always -> true
  | At a -> address_matches a lineno line
  | Between (a1, a2) ->
      if cmd.active then begin
        if address_matches a2 lineno line then cmd.active <- false;
        true
      end
      else if address_matches a1 lineno line then begin
        (* A numeric end at or before the start line makes a one-line
           range (GNU sed's rule); otherwise the range stays open and
           the end address is consulted from the next line on. *)
        (match a2 with
        | Line n when n <= lineno -> cmd.active <- false
        | Line _ | Pattern _ -> cmd.active <- true);
        true
      end
      else false

let substitute ~pat ~replacement ~global line =
  let expand m = Eden_util.Text.replace_all ~sub:"&" ~by:(Re.Group.get m 0) replacement in
  if global then Re.replace pat ~all:true ~f:expand line
  else Re.replace pat ~all:false ~f:expand line

let transliterate ~from ~into line =
  String.map (fun c -> match String.index_opt from c with Some i -> into.[i] | None -> c) line

(* Apply the whole script to one line.  Returns the lines to emit and
   whether to quit after them. *)
let apply_line script lineno line =
  let before = ref [] and after = ref [] in
  let quit = ref false in
  let current = ref (Some line) in
  let extra_prints = ref [] in
  List.iter
    (fun cmd ->
      match !current with
      | None -> ()
      | Some line_now ->
          if range_matches cmd lineno line_now then (
            match cmd.action with
            | Delete -> current := None
            | Print -> extra_prints := line_now :: !extra_prints
            | Quit -> quit := true
            | Insert text -> before := text :: !before
            | Append text -> after := text :: !after
            | Substitute { pat; replacement; global } ->
                current := Some (substitute ~pat ~replacement ~global line_now)
            | Transliterate { from; into } -> current := Some (transliterate ~from ~into line_now)))
    script;
  let outputs =
    List.rev !before
    @ List.rev !extra_prints
    @ (match !current with Some l -> [ l ] | None -> [])
    @ List.rev !after
  in
  (outputs, !quit)

(* Commands carry mutable range state, so each execution needs a fresh
   copy of the script. *)
let fresh script = List.map (fun c -> { c with active = false }) script

let transform script next emit =
  let script = fresh script in
  let rec go lineno =
    match next () with
    | None -> ()
    | Some v ->
        let line = Value.to_str v in
        let outputs, quit = apply_line script lineno line in
        List.iter (fun l -> emit (Value.Str l)) outputs;
        if not quit then go (lineno + 1)
  in
  go 1

let run_lines script lines = Line.run (transform script) lines

let two_input_stage k ?node ~commands ~text () =
  T.Stage.custom k ?node ~name:"sed" (fun ctx ~passive:_ ->
      let port = T.Port.create () in
      let w = T.Port.add_channel port ~capacity:0 T.Channel.output in
      Kernel.spawn_worker ctx ~name:"sed/edit" (fun () ->
          T.Port.await_demand w;
          (* First input: the editing commands (drained in full). *)
          let cuid, cchan = commands in
          let cpull = T.Pull.connect ctx ~channel:cchan cuid in
          let script_lines = ref [] in
          T.Pull.iter (fun v -> script_lines := Value.to_str v :: !script_lines) cpull;
          match parse_script (List.rev !script_lines) with
          | Error e -> failwith ("sed: " ^ e)
          | Ok script ->
              (* Second input: the text stream. *)
              let tuid, tchan = text in
              let tpull = T.Pull.connect ctx ~channel:tchan tuid in
              transform script (fun () -> T.Pull.read tpull) (T.Port.write w);
              T.Port.close w);
      T.Port.handlers port)
