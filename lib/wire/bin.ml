module Value = Eden_kernel.Value
module Uid = Eden_kernel.Uid
module Chunk = Eden_chunk.Chunk

let max_depth = 200

(* Tags.  One byte each; sizes chosen so [String.length (encode v) =
   Value.size v + tags], keeping the simulated cost model honest. *)
let tag_unit = 0x00
let tag_bool = 0x01
let tag_int = 0x02
let tag_float = 0x03
let tag_str = 0x04
let tag_uid = 0x05
let tag_list = 0x06
let tag_chunk = 0x07

let err fmt =
  Printf.ksprintf (fun m -> raise (Value.Protocol_error ("wire: " ^ m))) fmt

let rec to_buffer b v =
  match v with
  | Value.Unit -> Buffer.add_uint8 b tag_unit
  | Value.Bool x ->
      Buffer.add_uint8 b tag_bool;
      Buffer.add_uint8 b (if x then 1 else 0)
  | Value.Int n ->
      Buffer.add_uint8 b tag_int;
      Buffer.add_int64_be b (Int64.of_int n)
  | Value.Float f ->
      Buffer.add_uint8 b tag_float;
      Buffer.add_int64_be b (Int64.bits_of_float f)
  | Value.Str s ->
      if String.length s > 0x3FFFFFFF then invalid_arg "Bin.encode: string too long";
      Buffer.add_uint8 b tag_str;
      Buffer.add_int32_be b (Int32.of_int (String.length s));
      Buffer.add_string b s
  | Value.Uid u ->
      let tag, serial = Uid.to_wire u in
      Buffer.add_uint8 b tag_uid;
      Buffer.add_int64_be b tag;
      Buffer.add_int64_be b (Int64.of_int serial)
  | Value.List vs ->
      if List.compare_length_with vs 0x3FFFFFFF > 0 then
        invalid_arg "Bin.encode: list too long";
      Buffer.add_uint8 b tag_list;
      Buffer.add_int32_be b (Int32.of_int (List.length vs));
      List.iter (to_buffer b) vs
  | Value.Chunk c ->
      let len = Chunk.length c in
      if len > 0x3FFFFFFF then invalid_arg "Bin.encode: chunk too long";
      Buffer.add_uint8 b tag_chunk;
      Buffer.add_int32_be b (Int32.of_int len);
      Buffer.add_string b (Chunk.to_string c)

let encode v =
  let b = Buffer.create 64 in
  to_buffer b v;
  Buffer.contents b

(* The gather-encoding of a value: header bytes as flat strings, chunk
   payloads as live references.  [Conn.send_parts] copies it straight
   into a connection's output buffer, so each payload is copied once;
   [encode] above is the flattening equivalent (and Chunk payloads cost
   an extra pass through the Buffer there, which is exactly what the
   parts path exists to avoid). *)

type part = Flat of string | Payload of Chunk.t

let part_length = function
  | Flat s -> String.length s
  | Payload c -> Chunk.length c

let parts_length ps = List.fold_left (fun acc p -> acc + part_length p) 0 ps

let parts v =
  let acc = ref [] in
  let b = Buffer.create 64 in
  let flush () =
    if Buffer.length b > 0 then begin
      acc := Flat (Buffer.contents b) :: !acc;
      Buffer.clear b
    end
  in
  let rec go v =
    match v with
    | Value.Chunk c ->
        let len = Chunk.length c in
        if len > 0x3FFFFFFF then invalid_arg "Bin.parts: chunk too long";
        Buffer.add_uint8 b tag_chunk;
        Buffer.add_int32_be b (Int32.of_int len);
        flush ();
        acc := Payload c :: !acc
    | Value.List vs ->
        if List.compare_length_with vs 0x3FFFFFFF > 0 then
          invalid_arg "Bin.parts: list too long";
        Buffer.add_uint8 b tag_list;
        Buffer.add_int32_be b (Int32.of_int (List.length vs));
        List.iter go vs
    | v -> to_buffer b v
  in
  go v;
  flush ();
  List.rev !acc

(* Decoding: an explicit cursor over an immutable string.  Every read
   checks the remaining byte count first; lengths and list counts are
   additionally bounded by the remaining bytes so a hostile header can
   never trigger a large allocation (a list element costs >= 1 byte, a
   string byte costs 1). *)

type cursor = {
  s : string;
  mutable pos : int;
  limit : int;
  (* Every chunk decoded so far: a decode that fails releases them, so
     a corrupt frame leaks no chunk handle. *)
  mutable chunks : Chunk.t list;
}

let need c n what =
  if c.limit - c.pos < n then
    err "truncated %s: need %d bytes, have %d" what n (c.limit - c.pos)

let u8 c what =
  need c 1 what;
  let x = Char.code (String.unsafe_get c.s c.pos) in
  c.pos <- c.pos + 1;
  x

let i64 c what =
  need c 8 what;
  let x = String.get_int64_be c.s c.pos in
  c.pos <- c.pos + 8;
  x

let u32 c what =
  need c 4 what;
  let x = Int32.to_int (String.get_int32_be c.s c.pos) land 0xFFFFFFFF in
  c.pos <- c.pos + 4;
  x

let rec value c depth =
  if depth > max_depth then err "nesting exceeds depth %d" max_depth;
  let tag = u8 c "tag" in
  if tag = tag_unit then Value.Unit
  else if tag = tag_bool then
    match u8 c "bool" with
    | 0 -> Value.Bool false
    | 1 -> Value.Bool true
    | b -> err "bool byte %#x" b
  else if tag = tag_int then begin
    let n = i64 c "int" in
    if Int64.compare n (Int64.of_int max_int) > 0
       || Int64.compare n (Int64.of_int min_int) < 0
    then err "int %Ld outside native range" n;
    Value.Int (Int64.to_int n)
  end
  else if tag = tag_float then Value.Float (Int64.float_of_bits (i64 c "float"))
  else if tag = tag_str then begin
    let len = u32 c "string length" in
    if len > c.limit - c.pos then
      err "string length %d exceeds %d remaining bytes" len (c.limit - c.pos);
    let s = String.sub c.s c.pos len in
    c.pos <- c.pos + len;
    Value.Str s
  end
  else if tag = tag_uid then begin
    let tag64 = i64 c "uid tag" in
    let serial = i64 c "uid serial" in
    if Int64.compare serial 0L < 0 || Int64.compare serial (Int64.of_int max_int) > 0
    then err "uid serial %Ld outside native range" serial;
    Value.Uid (Uid.of_wire ~tag:tag64 ~serial:(Int64.to_int serial))
  end
  else if tag = tag_chunk then begin
    (* Same hostile-input discipline as strings: the length is bounded
       by the remaining bytes before any allocation, so a forged header
       (negative lengths arrive as huge unsigned ones) is rejected for
       the cost of the bounded diagnostic alone.  Decoding is the second
       payload copy on the receive side, after [Conn.take] cut the frame
       payload out of the input buffer; the fresh root is owned by the
       decoder's consumer.  Decoding straight out of the connection's
       buffer would drop one copy per hop (a ROADMAP carry-over). *)
    let len = u32 c "chunk length" in
    if len > c.limit - c.pos then
      err "chunk length %d exceeds %d remaining bytes" len (c.limit - c.pos);
    let ch = Chunk.of_substring c.s ~pos:c.pos ~len in
    c.pos <- c.pos + len;
    c.chunks <- ch :: c.chunks;
    Value.Chunk ch
  end
  else if tag = tag_list then begin
    let count = u32 c "list count" in
    if count > c.limit - c.pos then
      err "list count %d exceeds %d remaining bytes" count (c.limit - c.pos);
    let rec elements k acc =
      if k = 0 then List.rev acc else elements (k - 1) (value c (depth + 1) :: acc)
    in
    Value.List (elements count [])
  end
  else err "unknown tag %#x" tag

(* [f c], or — if it raises — every chunk [c] decoded released first. *)
let owning c f =
  match f c with
  | v -> v
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      List.iter Chunk.release c.chunks;
      Printexc.raise_with_backtrace e bt

let decode_prefix s ~pos =
  if pos < 0 || pos > String.length s then invalid_arg "Bin.decode_prefix";
  owning { s; pos; limit = String.length s; chunks = [] } (fun c ->
      let v = value c 0 in
      (v, c.pos))

let decode s =
  owning { s; pos = 0; limit = String.length s; chunks = [] } (fun c ->
      let v = value c 0 in
      if c.pos <> c.limit then err "%d trailing bytes after value" (c.limit - c.pos);
      v)
