(* Seeded input text and the oracle the sinks are checked against. *)

module Value = Eden_kernel.Value
module Prng = Eden_util.Prng
module Transform = Eden_transput.Transform
module Cat = Eden_filters.Catalog

let words =
  [|
    "stream"; "eject"; "transfer"; "deposit"; "channel"; "filter"; "pump"; "kernel"; "invoke";
    "reply"; "source"; "sink"; "window"; "report"; "credit"; "chunk"; "datum"; "pipe"; "read";
    "write"; "only"; "passive"; "active"; "eden"; "node"; "uid"; "checkpoint"; "type"; "code";
    "lazy"; "buffer"; "terminal";
  |]

(* A line of 4-9 words in mixed case with 0-3 trailing blanks, about
   42 bytes on average: the trailing blanks give trim_trailing work,
   the mixed case gives upcase and rot13 work. *)
let line g =
  let b = Buffer.create 64 in
  let n = 4 + Prng.int g 6 in
  for i = 1 to n do
    if i > 1 then Buffer.add_char b ' ';
    let w = words.(Prng.int g (Array.length words)) in
    Buffer.add_string b
      (match Prng.int g 4 with
      | 0 -> String.capitalize_ascii w
      | 1 -> String.uppercase_ascii w
      | _ -> w)
  done;
  for _ = 1 to Prng.int g 4 do
    Buffer.add_char b (if Prng.bool g then ' ' else '\t')
  done;
  Buffer.contents b

let lines ~seed n =
  let g = Prng.create (Int64.of_int seed) in
  Array.init n (fun _ -> line g)

(* The chain every line workload runs, boxed and chunked. *)
let chain = [ ("trim_trailing", Cat.trim_trailing); ("upcase", Cat.upcase); ("rot13", Cat.rot13) ]

let chunked_chain =
  [
    ("trim_trailing", Cat.chunked_trim_trailing);
    ("upcase", Cat.chunked_upcase);
    ("rot13", Cat.chunked_rot13);
  ]

(* The oracle: the same Catalog filters run over the boxed lines with
   [Transform.run_list], independent of any kernel or transport. *)
let oracle lines =
  let vs = List.map (fun l -> Value.Str l) (Array.to_list lines) in
  let out = List.fold_left (fun vs (_, f) -> Transform.run_list f vs) vs chain in
  Array.of_list (List.map Value.to_str out)

(* A newline-terminated document of at least [bytes] bytes cut into
   [bytes / cut] chunks at [cut] ± [cut]/4 seeded jitter, deliberately
   ignoring line boundaries.  Every chunk is at least [cut]/2 bytes and
   their number does not depend on the seed. *)
type cut_doc = {
  text : string;
  cuts : (int * int) array;  (** (position, length) of each chunk *)
  lines_through : int array;  (** newlines in the text up to the end of chunk [i] *)
  expect : string;  (** the oracle's output bytes *)
}

let cut_doc ~seed ~bytes ~cut =
  let g = Prng.create (Int64.of_int seed) in
  let b = Buffer.create (bytes + 128) in
  let ls = ref [] in
  while Buffer.length b < bytes do
    let l = line g in
    ls := l :: !ls;
    Buffer.add_string b l;
    Buffer.add_char b '\n'
  done;
  let text = Buffer.contents b in
  let n = bytes / cut in
  let jitter = cut / 4 in
  let ends =
    Array.init n (fun i ->
        if i = n - 1 then String.length text else ((i + 1) * cut) + Prng.int_in g (-jitter) jitter)
  in
  let cuts = Array.mapi (fun i e -> let p = if i = 0 then 0 else ends.(i - 1) in (p, e - p)) ends in
  let newlines = ref 0 and pos = ref 0 in
  let lines_through =
    Array.map
      (fun e ->
        while !pos < e do
          if String.unsafe_get text !pos = '\n' then incr newlines;
          incr pos
        done;
        !newlines)
      ends
  in
  let out = oracle (Array.of_list (List.rev !ls)) in
  let eb = Buffer.create (String.length text) in
  Array.iter
    (fun l ->
      Buffer.add_string eb l;
      Buffer.add_char eb '\n')
    out;
  { text; cuts; lines_through; expect = Buffer.contents eb }
