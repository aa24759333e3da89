module Value = Eden_kernel.Value

type kind = Request | Reply | Idle | Shutdown | Stats

type header = { kind : kind; flags : int; src : int; dst : int; seq : int }
type t = { hdr : header; payload : string }

let flag_oneway = 1
let flag_mac = 4 (* payload ends in an 8-byte keyed MAC trailer *)
let header_bytes = 8
let max_payload = 16 * 1024 * 1024

let err fmt =
  Printf.ksprintf (fun m -> raise (Value.Protocol_error ("wire: " ^ m))) fmt

(* Codes 1 and 2 are unassigned: a frame carrying either is refused as
   an unknown kind. *)
let kind_code = function
  | Request -> 3
  | Reply -> 4
  | Idle -> 5
  | Shutdown -> 6
  | Stats -> 7

let kind_of_code = function
  | 3 -> Request
  | 4 -> Reply
  | 5 -> Idle
  | 6 -> Shutdown
  | 7 -> Stats
  | c -> err "unknown frame kind %#x" c

let kind_name = function
  | Request -> "request"
  | Reply -> "reply"
  | Idle -> "idle"
  | Shutdown -> "shutdown"
  | Stats -> "stats"

let make ~kind ?(flags = 0) ~src ~dst ?(seq = 0) payload =
  { hdr = { kind; flags; src; dst; seq }; payload }

let size f = 4 + header_bytes + String.length f.payload

(* [len] is the length word: every byte after it. *)
let set_header b pos ~len h =
  Bytes.set_int32_be b pos (Int32.of_int len);
  Bytes.set_uint8 b (pos + 4) (kind_code h.kind);
  Bytes.set_uint8 b (pos + 5) (h.flags land 0xFF);
  Bytes.set_uint8 b (pos + 6) (h.src land 0xFF);
  Bytes.set_uint8 b (pos + 7) (h.dst land 0xFF);
  Bytes.set_int32_be b (pos + 8) (Int32.of_int (h.seq land 0xFFFFFFFF))

let encode f =
  let plen = String.length f.payload in
  if plen > max_payload then invalid_arg "Frame.encode: payload exceeds max_payload";
  let b = Bytes.create (4 + header_bytes + plen) in
  set_header b 0 ~len:(header_bytes + plen) f.hdr;
  Bytes.blit_string f.payload 0 b (4 + header_bytes) plen;
  Bytes.unsafe_to_string b

let get_header s pos =
  let kind = kind_of_code (Char.code s.[pos]) in
  let flags = Char.code s.[pos + 1] in
  let src = Char.code s.[pos + 2] in
  let dst = Char.code s.[pos + 3] in
  let seq = Int32.to_int (String.get_int32_be s (pos + 4)) land 0xFFFFFFFF in
  { kind; flags; src; dst; seq }

(* [body] is the [len] bytes following the length word. *)
let decode_body body =
  let blen = String.length body in
  if blen < header_bytes then err "truncated frame header: %d bytes" blen;
  { hdr = get_header body 0; payload = String.sub body header_bytes (blen - header_bytes) }

let length_word s pos =
  let len = Int32.to_int (String.get_int32_be s pos) land 0xFFFFFFFF in
  if len < header_bytes then err "frame length %d below header size %d" len header_bytes;
  if len > header_bytes + max_payload then
    err "frame length %d exceeds cap %d" len (header_bytes + max_payload);
  len

let decode s =
  if String.length s < 4 then err "truncated frame: %d bytes" (String.length s);
  let len = length_word s 0 in
  if String.length s <> 4 + len then
    err "frame length %d disagrees with %d bytes present" len (String.length s - 4);
  decode_body (String.sub s 4 len)

(* Unbuffered blocking IO, one frame per call, for simple tools and
   measurements.  Data traffic goes through [Conn]. *)

let rec write_all fd b pos len =
  if len > 0 then begin
    let n = Unix.write fd b pos len in
    write_all fd b (pos + n) (len - n)
  end

let write fd f =
  let s = encode f in
  write_all fd (Bytes.unsafe_of_string s) 0 (String.length s)

let read_exact fd n ~at_boundary =
  let b = Bytes.create n in
  let got = ref 0 in
  while !got < n do
    let r = Unix.read fd b !got (n - !got) in
    if r = 0 then
      if at_boundary && !got = 0 then raise End_of_file
      else err "peer closed mid-frame (%d of %d bytes)" !got n;
    got := !got + r
  done;
  Bytes.unsafe_to_string b

let read fd =
  let len = length_word (read_exact fd 4 ~at_boundary:true) 0 in
  decode_body (read_exact fd len ~at_boundary:false)
