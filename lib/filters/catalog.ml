module Text = Eden_util.Text

let strip_comments ?(prefix = "C") () = Line.keep (fun l -> not (Text.is_prefix ~prefix l))

let grep pattern = Line.keep (fun l -> Text.contains_sub ~sub:pattern l)
let grep_v pattern = Line.keep (fun l -> not (Text.contains_sub ~sub:pattern l))

let upcase = Line.map String.uppercase_ascii
let downcase = Line.map String.lowercase_ascii

let rot13_char c =
  if c >= 'a' && c <= 'z' then Char.chr (((Char.code c - Char.code 'a' + 13) mod 26) + Char.code 'a')
  else if c >= 'A' && c <= 'Z' then
    Char.chr (((Char.code c - Char.code 'A' + 13) mod 26) + Char.code 'A')
  else c

let rot13 = Line.map (String.map rot13_char)

let translate ~from ~into =
  if String.length from <> String.length into then
    invalid_arg "Catalog.translate: from/into length mismatch";
  let tr c = match String.index_opt from c with Some i -> into.[i] | None -> c in
  Line.map (String.map tr)

let number_lines ?(start = 1) ?(width = 4) () =
  Line.stateful ~init:start
    ~step:(fun n line -> (n + 1, [ Printf.sprintf "%*d  %s" width n line ]))
    ~flush:(fun _ -> [])

let head n = Eden_transput.Transform.take n

let tail n =
  Line.stateful ~init:[]
    ~step:(fun kept line ->
      let kept = line :: kept in
      let kept = if List.length kept > n then List.filteri (fun i _ -> i < n) kept else kept in
      (kept, []))
    ~flush:(fun kept -> List.rev kept)

let paginate ?(lines_per_page = 10) ?(title = "") () =
  if lines_per_page <= 0 then invalid_arg "Catalog.paginate: lines_per_page must be positive";
  let header page = Printf.sprintf "==== %s page %d ====" title page in
  (* State: (page number, lines already on this page). *)
  Line.stateful ~init:(1, 0)
    ~step:(fun (page, fill) line ->
      if fill = 0 then ((page, 1), [ header page; line ])
      else if fill + 1 >= lines_per_page then ((page + 1, 0), [ line ])
      else ((page, fill + 1), [ line ]))
    ~flush:(fun _ -> [])

let word_count =
  Line.stateful ~init:(0, 0, 0)
    ~step:(fun (l, w, c) line ->
      ((l + 1, w + List.length (Text.words line), c + String.length line + 1), []))
    ~flush:(fun (l, w, c) -> [ Printf.sprintf "%d %d %d" l w c ])

let on_all f =
  Eden_transput.Transform.buffer_all (fun items ->
      let lines = List.map Eden_kernel.Value.to_str items in
      List.map (fun s -> Eden_kernel.Value.Str s) (f lines))

let sort_lines = on_all (List.sort String.compare)
let reverse_lines = on_all List.rev

let uniq =
  Line.stateful ~init:None
    ~step:(fun prev line ->
      match prev with
      | Some p when String.equal p line -> (prev, [])
      | Some _ | None -> (Some line, [ line ]))
    ~flush:(fun _ -> [])

(* The blank bytes: [squeeze_blank]'s blank lines are made of them,
   and both trims drop them from line ends. *)
let blank_char c = c = ' ' || c = '\t'
let is_blank l = String.for_all blank_char l

let squeeze_blank =
  Line.stateful ~init:false
    ~step:(fun prev_blank line ->
      let blank = is_blank line in
      if blank && prev_blank then (true, []) else (blank, [ line ]))
    ~flush:(fun _ -> [])

let trim_line =
  let rec rstrip s i = if i > 0 && blank_char s.[i - 1] then rstrip s (i - 1) else i in
  fun l -> String.sub l 0 (rstrip l (String.length l))

let trim_trailing = Line.map trim_line

let expand_tabs ?(tabstop = 8) () = Line.map (Text.expand_tabs ~tabstop)

let cut ~delim ~field =
  if field < 1 then invalid_arg "Catalog.cut: field is 1-indexed";
  Line.map (fun l ->
      let parts = String.split_on_char delim l in
      match List.nth_opt parts (field - 1) with Some f -> f | None -> "")

let normalise_word w =
  String.lowercase_ascii
    (String.to_seq w
    |> Seq.filter (fun c -> (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '\'')
    |> String.of_seq)

let fold_width width =
  if width <= 0 then invalid_arg "Catalog.fold_width: width must be positive";
  Line.expand (fun l -> if l = "" then [ "" ] else Text.chunks ~size:width l)

module SS = Set.Make (String)

let spell ~dictionary =
  let dict = List.fold_left (fun s w -> SS.add (String.lowercase_ascii w) s) SS.empty dictionary in
  Line.expand (fun line ->
      Text.words line
      |> List.map normalise_word
      |> List.filter (fun w -> w <> "" && not (SS.mem w dict)))

(* --- chunk-at-a-time counterparts ----------------------------------- *)

(* The same line functions lifted over byte chunks; test_chunk holds
   each pair to byte-identical output.  The four per-byte ones run as
   byte kernels over the per-byte function or predicate their boxed
   twin uses. *)

let chunked_upcase = Chunkline.tr Char.uppercase_ascii
let chunked_downcase = Chunkline.tr Char.lowercase_ascii
let chunked_trim_trailing = Chunkline.rstrip blank_char
let chunked_rot13 = Chunkline.tr rot13_char
let chunked_grep pattern = Chunkline.keep (fun l -> Text.contains_sub ~sub:pattern l)
let chunked_grep_v pattern = Chunkline.keep (fun l -> not (Text.contains_sub ~sub:pattern l))

let chunked_number_lines () =
  Chunkline.stateful ~init:1 ~step:(fun n line -> (n + 1, [ Printf.sprintf "%4d  %s" n line ]))
    ~flush:(fun _ -> [])

(* --- name registry for the shell ----------------------------------- *)

let int_arg name args =
  match args with
  | [ a ] -> (
      match int_of_string_opt a with
      | Some n -> Ok n
      | None -> Error (Printf.sprintf "%s: expected an integer, got %S" name a))
  | _ -> Error (Printf.sprintf "%s: expected one integer argument" name)

let no_args name args v = match args with [] -> Ok v | _ -> Error (name ^ ": takes no arguments")

let by_name name args =
  match name with
  | "strip-comments" -> (
      match args with
      | [] -> Ok (strip_comments ())
      | [ p ] -> Ok (strip_comments ~prefix:p ())
      | _ -> Error "strip-comments: at most one prefix argument")
  | "grep" -> ( match args with [ p ] -> Ok (grep p) | _ -> Error "grep: expected one pattern")
  | "grep-v" -> ( match args with [ p ] -> Ok (grep_v p) | _ -> Error "grep-v: expected one pattern")
  | "upcase" -> no_args name args upcase
  | "downcase" -> no_args name args downcase
  | "rot13" -> no_args name args rot13
  | "number" -> no_args name args (number_lines ())
  | "head" -> Result.map head (int_arg name args)
  | "tail" -> Result.map tail (int_arg name args)
  | "paginate" -> (
      match args with
      | [] -> Ok (paginate ())
      | [ n ] -> (
          match int_of_string_opt n with
          | Some n when n > 0 -> Ok (paginate ~lines_per_page:n ())
          | _ -> Error "paginate: expected a positive page length")
      | _ -> Error "paginate: at most one page-length argument")
  | "wc" -> no_args name args word_count
  | "sort" -> no_args name args sort_lines
  | "tac" -> no_args name args reverse_lines
  | "uniq" -> no_args name args uniq
  | "squeeze-blank" -> no_args name args squeeze_blank
  | "trim" -> no_args name args trim_trailing
  | "expand" -> (
      match args with
      | [] -> Ok (expand_tabs ())
      | [ n ] -> (
          match int_of_string_opt n with
          | Some n when n > 0 -> Ok (expand_tabs ~tabstop:n ())
          | _ -> Error "expand: expected a positive tabstop")
      | _ -> Error "expand: at most one tabstop argument")
  | "cut" -> (
      match args with
      | [ d; f ] when String.length d = 1 -> (
          match int_of_string_opt f with
          | Some field when field >= 1 -> Ok (cut ~delim:d.[0] ~field)
          | _ -> Error "cut: field must be a positive integer")
      | _ -> Error "cut: expected <delim-char> <field>")
  | "spell" -> Ok (spell ~dictionary:args)
  | "fold" -> (
      match args with
      | [ n ] -> (
          match int_of_string_opt n with
          | Some n when n > 0 -> Ok (fold_width n)
          | _ -> Error "fold: expected a positive width")
      | _ -> Error "fold: expected one width argument")
  | "sed" -> Result.map Sed.transform (Sed.parse_script args)
  | _ -> Error (Printf.sprintf "unknown filter: %s" name)

let names =
  [
    "cut"; "downcase"; "expand"; "fold"; "grep"; "grep-v"; "head"; "number"; "paginate";
    "rot13"; "sed"; "sort"; "spell"; "squeeze-blank"; "strip-comments"; "tac"; "tail"; "trim";
    "uniq"; "upcase"; "wc";
  ]
