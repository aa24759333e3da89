module Chunk = Eden_chunk.Chunk

type t =
  | Unit
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Uid of Uid.t
  | List of t list
  | Chunk of Chunk.t

exception Protocol_error of string

let unit = Unit
let bool b = Bool b
let int n = Int n
let float f = Float f
let str s = Str s
let uid u = Uid u
let list vs = List vs
let pair a b = List [ a; b ]
let chunk c = Chunk c

let shape = function
  | Unit -> "unit"
  | Bool _ -> "bool"
  | Int _ -> "int"
  | Float _ -> "float"
  | Str _ -> "string"
  | Uid _ -> "uid"
  | List _ -> "list"
  | Chunk _ -> "chunk"

let wrong expected v =
  raise (Protocol_error (Printf.sprintf "expected %s, got %s" expected (shape v)))

let to_unit = function Unit -> () | v -> wrong "unit" v
let to_bool = function Bool b -> b | v -> wrong "bool" v
let to_int = function Int n -> n | v -> wrong "int" v
let to_float = function Float f -> f | v -> wrong "float" v
let to_str = function Str s -> s | v -> wrong "string" v
let to_uid = function Uid u -> u | v -> wrong "uid" v
let to_list = function List vs -> vs | v -> wrong "list" v
let to_chunk = function Chunk c -> c | v -> wrong "chunk" v

let to_pair = function
  | List [ a; b ] -> (a, b)
  | v -> wrong "pair" v

let rec equal a b =
  match a, b with
  | Unit, Unit -> true
  | Bool x, Bool y -> x = y
  | Int x, Int y -> x = y
  | Float x, Float y -> Float.equal x y
  | Str x, Str y -> String.equal x y
  | Uid x, Uid y -> Uid.equal x y
  | List xs, List ys -> ( try List.for_all2 equal xs ys with Invalid_argument _ -> false)
  | Chunk x, Chunk y -> Chunk.equal x y
  | (Unit | Bool _ | Int _ | Float _ | Str _ | Uid _ | List _ | Chunk _), _ -> false

let rec size = function
  | Unit -> 1
  | Bool _ -> 1
  | Int _ | Float _ -> 8
  | Str s -> 4 + String.length s
  | Uid _ -> 16
  | List vs -> List.fold_left (fun acc v -> acc + size v) 4 vs
  (* Same length-prefix framing as Str, so the simulated cost model and
     the Bin size law treat the two interchangeably; [Chunk.length]
     never faults, so sizing a released chunk stays safe. *)
  | Chunk c -> 4 + Chunk.length c

let rec pp ppf = function
  | Unit -> Format.pp_print_string ppf "()"
  | Bool b -> Format.pp_print_bool ppf b
  | Int n -> Format.pp_print_int ppf n
  | Float f -> Format.fprintf ppf "%g" f
  | Str s -> Format.fprintf ppf "%S" s
  | Uid u -> Uid.pp ppf u
  | List vs ->
      Format.fprintf ppf "[@[%a@]]" (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ";@ ") pp) vs
  | Chunk c -> Chunk.pp ppf c

let to_string v = Format.asprintf "%a" pp v

exception Preview_full

let preview v =
  let max_len = 96 in
  let b = Buffer.create max_len in
  let add s =
    let room = max_len - Buffer.length b in
    if String.length s <= room then Buffer.add_string b s
    else begin
      Buffer.add_string b (String.sub s 0 (max 0 room));
      raise Preview_full
    end
  in
  let rec go = function
    | Unit -> add "()"
    | Bool x -> add (string_of_bool x)
    | Int n -> add (string_of_int n)
    | Float f -> add (Printf.sprintf "%g" f)
    | Str s ->
        (* Pre-truncate before quoting so a hostile megabyte string never
           materialises a megabyte escape. *)
        let s = if String.length s > max_len then String.sub s 0 max_len else s in
        add (Printf.sprintf "%S" s)
    | Uid u -> add (Uid.to_string u)
    | List vs ->
        add "[";
        List.iteri
          (fun i v ->
            if i > 0 then add "; ";
            go v)
          vs;
        add "]"
    | Chunk c ->
        (* Chunk.preview is itself bounded — a hostile gigabyte chunk
           costs at most [max_len] bytes of rendering here. *)
        add (Chunk.preview ~max_len c)
  in
  (try go v with Preview_full -> Buffer.add_string b "…");
  Buffer.contents b
