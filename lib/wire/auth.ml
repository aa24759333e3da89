module Value = Eden_kernel.Value

let err fmt = Printf.ksprintf (fun m -> raise (Value.Protocol_error ("auth: " ^ m))) fmt

(* --- SipHash-2-4 ---------------------------------------------------- *)

(* The compression loop is C (auth_stubs.c): every frame on an
   authenticated link pays one MAC over its whole payload on each side.
   [native key prefix msg pos len] is the MAC of [prefix ^ msg[pos,
   pos+len)], hashing the message in place; the prefix must be a whole
   number of 8-byte words, and every bound is checked here first. *)
external native : string -> string -> string -> int -> int -> (int64[@unboxed])
  = "eden_siphash_byte" "eden_siphash"
  [@@noalloc]

let siphash_sub ~key ~prefix s ~pos ~len =
  if String.length key <> 16 then invalid_arg "Auth.siphash: key must be 16 bytes";
  if String.length prefix land 7 <> 0 then
    invalid_arg "Auth.siphash: prefix must be whole 8-byte words";
  if pos < 0 || len < 0 || pos + len > String.length s then
    invalid_arg "Auth.siphash: range outside message";
  native key prefix s pos len

let siphash_prefixed ~key ~prefix msg =
  siphash_sub ~key ~prefix msg ~pos:0 ~len:(String.length msg)

let siphash ~key msg = siphash_prefixed ~key ~prefix:"" msg

(* --- Communities ---------------------------------------------------- *)

type community = { id : int64; key : string }

let community ~id ~key =
  if String.length key <> 16 then invalid_arg "Auth.community: key must be 16 bytes";
  { id; key }

(* --- Handshake ------------------------------------------------------ *)

(* Authenticated handshake payload, 40 bytes: the 16-byte base
   (magic u32, version u16, shard u8, pad, nonce u64), then
   community id u64, session token u64, MAC u64.  The MAC covers the
   frame kind and routing bytes plus everything before itself, under
   the community key — layer 2 sealing layers 1 and 3. *)

let auth_payload_bytes = 40

let handshake_mac c ~kind ~src ~dst body32 =
  let b = Buffer.create 36 in
  Buffer.add_uint8 b (Frame.kind_code kind);
  Buffer.add_uint8 b (src land 0xFF);
  Buffer.add_uint8 b (dst land 0xFF);
  Buffer.add_string b body32;
  siphash ~key:c.key (Buffer.contents b)

let handshake c ~kind ~src ~dst ~shard ~nonce ~token =
  let b = Buffer.create auth_payload_bytes in
  Buffer.add_int32_be b Frame.magic;
  Buffer.add_uint16_be b Frame.version;
  Buffer.add_uint8 b (shard land 0xFF);
  Buffer.add_uint8 b 0;
  Buffer.add_int64_be b nonce;
  Buffer.add_int64_be b c.id;
  Buffer.add_int64_be b token;
  let body32 = Buffer.contents b in
  Buffer.add_int64_be b (handshake_mac c ~kind ~src ~dst body32);
  Frame.make ~kind ~flags:Frame.flag_auth ~src ~dst (Buffer.contents b)

let hello c ~shard ~nonce =
  handshake c ~kind:Frame.Hello ~src:shard ~dst:0 ~shard ~nonce ~token:0L

let welcome c ~shard ~nonce ~token =
  handshake c ~kind:Frame.Welcome ~src:0 ~dst:shard ~shard ~nonce ~token

let mint_token c ~shard ~nonce =
  let b = Buffer.create 17 in
  Buffer.add_string b "session.";
  Buffer.add_uint8 b (shard land 0xFF);
  Buffer.add_int64_be b nonce;
  siphash ~key:c.key (Buffer.contents b)

(* A leaf-to-leaf link has no handshake: the parent made both ends, so
   both derive its token.  The label keeps it apart from every
   [mint_token], and the ordered pair makes it one token per link. *)
let link_token c ~nonce a b =
  let buf = Buffer.create 15 in
  Buffer.add_string buf "link.";
  Buffer.add_uint8 buf (min a b land 0xFF);
  Buffer.add_uint8 buf (max a b land 0xFF);
  Buffer.add_int64_be buf nonce;
  siphash ~key:c.key (Buffer.contents buf)

(* Shared field parse for both directions; every failure is a result,
   never an exception — a hostile handshake must not crash the shard. *)
let parse_auth_handshake ~expect f =
  let { Frame.kind; flags; src; dst; seq = _ } = f.Frame.hdr in
  let p = f.Frame.payload in
  if kind <> expect then Error (Printf.sprintf "expected %s frame" (Frame.kind_name expect))
  else if flags land Frame.flag_auth = 0 then Error "unauthenticated handshake"
  else if String.length p <> auth_payload_bytes then
    Error (Printf.sprintf "auth handshake payload %d bytes, want %d" (String.length p)
             auth_payload_bytes)
  else if not (Int32.equal (String.get_int32_be p 0) Frame.magic) then Error "bad magic"
  else if String.get_uint16_be p 4 <> Frame.version then Error "bad version"
  else
    let shard = Char.code p.[6] in
    let nonce = String.get_int64_be p 8 in
    let cid = String.get_int64_be p 16 in
    let token = String.get_int64_be p 24 in
    let mac = String.get_int64_be p 32 in
    Ok (src, dst, shard, nonce, cid, token, mac, String.sub p 0 32)

let verify_hello ~lookup f =
  match parse_auth_handshake ~expect:Frame.Hello f with
  | Error _ as e -> e
  | Ok (src, dst, shard, nonce, cid, _token, mac, body32) -> (
      match lookup cid with
      | None -> Error (Printf.sprintf "unknown community %Ld" cid)
      | Some c ->
          if not (Int64.equal mac (handshake_mac c ~kind:Frame.Hello ~src ~dst body32))
          then Error "hello MAC mismatch"
          else Ok (shard, nonce, c))

let verify_welcome c ~expect_nonce f =
  match parse_auth_handshake ~expect:Frame.Welcome f with
  | Error _ as e -> e
  | Ok (src, dst, _shard, nonce, cid, token, mac, body32) ->
      if not (Int64.equal cid c.id) then Error "welcome for another community"
      else if not (Int64.equal mac (handshake_mac c ~kind:Frame.Welcome ~src ~dst body32))
      then Error "welcome MAC mismatch"
      else if not (Int64.equal nonce expect_nonce) then Error "welcome nonce mismatch"
      else Ok token

(* --- Data-frame sealing --------------------------------------------- *)

type session = {
  skey : string;
  token : int64;
  mutable send_ctr : int;
  mutable recv_ctr : int;
}

let session c ~token = { skey = c.key; token; send_ctr = 0; recv_ctr = 0 }
let sent s = s.send_ctr
let received s = s.recv_ctr

(* The MAC of a frame whose header is [h] and whose unsealed payload is
   [s[pos, pos+len)]: a 24-byte prefix (token, counter, header without
   [flag_mac]) and then the payload, hashed where it lies. *)
let frame_mac sess ~ctr (h : Frame.header) s ~pos ~len =
  let b = Bytes.create 24 in
  Bytes.set_int64_be b 0 sess.token;
  Bytes.set_int64_be b 8 (Int64.of_int ctr);
  Bytes.set_uint8 b 16 (Frame.kind_code h.kind);
  Bytes.set_uint8 b 17 (h.flags land lnot Frame.flag_mac land 0xFF);
  Bytes.set_uint8 b 18 (h.src land 0xFF);
  Bytes.set_uint8 b 19 (h.dst land 0xFF);
  Bytes.set_int32_be b 20 (Int32.of_int h.seq);
  siphash_sub ~key:sess.skey ~prefix:(Bytes.unsafe_to_string b) s ~pos ~len

let seal_mac sess h s ~pos ~len =
  let mac = frame_mac sess ~ctr:sess.send_ctr h s ~pos ~len in
  sess.send_ctr <- sess.send_ctr + 1;
  mac

let seal sess f =
  let plen = String.length f.Frame.payload in
  let mac = seal_mac sess f.Frame.hdr f.Frame.payload ~pos:0 ~len:plen in
  let b = Bytes.create (plen + 8) in
  Bytes.blit_string f.Frame.payload 0 b 0 plen;
  Bytes.set_int64_be b plen mac;
  {
    Frame.hdr = { f.Frame.hdr with flags = f.Frame.hdr.flags lor Frame.flag_mac };
    payload = Bytes.unsafe_to_string b;
  }

let replay_window = 64

let open_sub sess (h : Frame.header) s ~pos ~len =
  if h.flags land Frame.flag_mac = 0 then err "unsealed frame on an authenticated link";
  if len < 8 then err "sealed frame too short for its MAC trailer";
  let plen = len - 8 in
  let mac = String.get_int64_be s (pos + plen) in
  let stripped = { h with flags = h.flags land lnot Frame.flag_mac } in
  let mac_at ctr = frame_mac sess ~ctr stripped s ~pos ~len:plen in
  if Int64.equal mac (mac_at sess.recv_ctr) then begin
    sess.recv_ctr <- sess.recv_ctr + 1;
    stripped
  end
  else begin
    (* Distinguish a replay (MAC good under an earlier counter) from
       corruption or forgery: the meters and the operator want to know. *)
    let lo = max 0 (sess.recv_ctr - replay_window) in
    let rec scan c =
      if c >= sess.recv_ctr then err "frame MAC mismatch"
      else if Int64.equal mac (mac_at c) then
        err "replayed frame (counter %d, expected %d)" c sess.recv_ctr
      else scan (c + 1)
    in
    scan lo
  end

let open_ sess f =
  let p = f.Frame.payload in
  let hdr = open_sub sess f.Frame.hdr p ~pos:0 ~len:(String.length p) in
  { Frame.hdr; payload = String.sub p 0 (String.length p - 8) }
