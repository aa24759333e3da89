type error = Enoent | Enotdir | Eisdir | Eexist | Enotempty | Einval

exception Error of error * string

let error_message = function
  | Enoent -> "no such file or directory"
  | Enotdir -> "not a directory"
  | Eisdir -> "is a directory"
  | Eexist -> "file exists"
  | Enotempty -> "directory not empty"
  | Einval -> "invalid argument"

type node = File of { mutable content : string } | Dir of (string, node) Hashtbl.t

type t = { root : (string, node) Hashtbl.t }

let create () = { root = Hashtbl.create 16 }

let normalise path =
  let raw = String.split_on_char '/' path in
  let step acc comp =
    match comp with
    | "" | "." -> acc
    | ".." -> ( match acc with [] -> [] | _ :: rest -> rest)
    | c ->
        if String.contains c '\x00' then raise (Error (Einval, path));
        c :: acc
  in
  List.rev (List.fold_left step [] raw)

(* Walk to the parent directory of the final component. *)
let rec descend tbl comps path =
  match comps with
  | [] -> invalid_arg "Unix_fs.descend: empty"
  | [ last ] -> (tbl, last)
  | c :: rest -> (
      match Hashtbl.find_opt tbl c with
      | Some (Dir sub) -> descend sub rest path
      | Some (File _) -> raise (Error (Enotdir, path))
      | None -> raise (Error (Enoent, path)))

let lookup t path =
  let comps = normalise path in
  match comps with
  | [] -> Some (Dir t.root)
  | comps -> (
      let parent, last = descend t.root comps path in
      Hashtbl.find_opt parent last)

let mkdir t path =
  match normalise path with
  | [] -> raise (Error (Eexist, path))
  | comps -> (
      let parent, last = descend t.root comps path in
      match Hashtbl.find_opt parent last with
      | Some _ -> raise (Error (Eexist, path))
      | None -> Hashtbl.replace parent last (Dir (Hashtbl.create 8)))

let mkdir_p t path =
  let comps = normalise path in
  let rec go tbl = function
    | [] -> ()
    | c :: rest -> (
        match Hashtbl.find_opt tbl c with
        | Some (Dir sub) -> go sub rest
        | Some (File _) -> raise (Error (Enotdir, path))
        | None ->
            let sub = Hashtbl.create 8 in
            Hashtbl.replace tbl c (Dir sub);
            go sub rest)
  in
  go t.root comps

let rmdir t path =
  match normalise path with
  | [] -> raise (Error (Einval, path))
  | comps -> (
      let parent, last = descend t.root comps path in
      match Hashtbl.find_opt parent last with
      | Some (Dir sub) ->
          if Hashtbl.length sub > 0 then raise (Error (Enotempty, path));
          Hashtbl.remove parent last
      | Some (File _) -> raise (Error (Enotdir, path))
      | None -> raise (Error (Enoent, path)))

let readdir t path =
  match lookup t path with
  | Some (Dir tbl) -> List.sort String.compare (Hashtbl.fold (fun k _ acc -> k :: acc) tbl [])
  | Some (File _) -> raise (Error (Enotdir, path))
  | None -> raise (Error (Enoent, path))

let write_file t path content =
  match normalise path with
  | [] -> raise (Error (Eisdir, path))
  | comps -> (
      let parent, last = descend t.root comps path in
      match Hashtbl.find_opt parent last with
      | Some (Dir _) -> raise (Error (Eisdir, path))
      | Some (File f) -> f.content <- content
      | None -> Hashtbl.replace parent last (File { content }))

let append_file t path content =
  match normalise path with
  | [] -> raise (Error (Eisdir, path))
  | comps -> (
      let parent, last = descend t.root comps path in
      match Hashtbl.find_opt parent last with
      | Some (Dir _) -> raise (Error (Eisdir, path))
      | Some (File f) -> f.content <- f.content ^ content
      | None -> Hashtbl.replace parent last (File { content }))

let read_file t path =
  match lookup t path with
  | Some (File f) -> f.content
  | Some (Dir _) -> raise (Error (Eisdir, path))
  | None -> raise (Error (Enoent, path))

let unlink t path =
  match normalise path with
  | [] -> raise (Error (Eisdir, path))
  | comps -> (
      let parent, last = descend t.root comps path in
      match Hashtbl.find_opt parent last with
      | Some (File _) -> Hashtbl.remove parent last
      | Some (Dir _) -> raise (Error (Eisdir, path))
      | None -> raise (Error (Enoent, path)))

let rename t src dst =
  let src_comps = normalise src and dst_comps = normalise dst in
  if src_comps = [] || dst_comps = [] then raise (Error (Einval, src));
  let sparent, slast = descend t.root src_comps src in
  let node =
    match Hashtbl.find_opt sparent slast with
    | Some n -> n
    | None -> raise (Error (Enoent, src))
  in
  let dparent, dlast = descend t.root dst_comps dst in
  (match Hashtbl.find_opt dparent dlast with
  | Some (Dir _) -> raise (Error (Eexist, dst))
  | Some (File _) | None -> ());
  Hashtbl.remove sparent slast;
  Hashtbl.replace dparent dlast node

let exists t path = lookup t path <> None
let is_dir t path = match lookup t path with Some (Dir _) -> true | _ -> false
let is_file t path = match lookup t path with Some (File _) -> true | _ -> false

let size t path =
  match lookup t path with
  | Some (File f) -> String.length f.content
  | Some (Dir _) -> raise (Error (Eisdir, path))
  | None -> raise (Error (Enoent, path))

let rec count_node (files, bytes) = function
  | File f -> (files + 1, bytes + String.length f.content)
  | Dir tbl -> Hashtbl.fold (fun _ n acc -> count_node acc n) tbl (files, bytes)

let totals t = count_node (0, 0) (Dir t.root)
let total_files t = fst (totals t)
let total_bytes t = snd (totals t)
