module Chunk = Eden_chunk.Chunk

let initial_capacity = 4096

type t = {
  fd : Unix.file_descr;
  (* Queued bytes not yet written are [out[out_lo, out_len)]. *)
  mutable out : Bytes.t;
  mutable out_lo : int;
  mutable out_len : int;
  (* Received bytes not yet cut into frames are [inb[lo, hi)]. *)
  mutable inb : Bytes.t;
  mutable lo : int;
  mutable hi : int;
  mutable writes : int;
  mutable reads : int;
}

let create fd =
  Unix.set_nonblock fd;
  {
    fd;
    out = Bytes.create initial_capacity;
    out_lo = 0;
    out_len = 0;
    inb = Bytes.create initial_capacity;
    lo = 0;
    hi = 0;
    writes = 0;
    reads = 0;
  }

let fd t = t.fd
let pending t = t.out_len - t.out_lo
let writes t = t.writes
let reads t = t.reads
let capacity t = Bytes.length t.inb

(* --- Sending ----------------------------------------------------------- *)

let reserve t n =
  let live = t.out_len - t.out_lo in
  if t.out_len + n > Bytes.length t.out then begin
    let b =
      if live + n > Bytes.length t.out then
        Bytes.create (max (live + n) (2 * Bytes.length t.out))
      else t.out
    in
    Bytes.blit t.out t.out_lo b 0 live;
    t.out <- b;
    t.out_lo <- 0;
    t.out_len <- live
  end

(* Queue one frame whose [plen] payload bytes [blit] writes at the
   position it is given; with a session, the MAC trailer is computed
   over the payload where it lies in the buffer.  (The buffer is passed
   to the MAC as a string: the stub reads it and keeps nothing.) *)
let queue ?session t (hdr : Frame.header) ~plen blit =
  let trailer = if Option.is_some session then 8 else 0 in
  if plen + trailer > Frame.max_payload then
    invalid_arg "Conn.send: payload exceeds max_payload";
  let body = Frame.header_bytes + plen + trailer in
  reserve t (4 + body);
  let at = t.out_len in
  let ppos = at + 4 + Frame.header_bytes in
  let flags = if trailer = 0 then hdr.flags else hdr.flags lor Frame.flag_mac in
  Frame.set_header t.out at ~len:body { hdr with flags };
  blit t.out ppos;
  (match session with
  | None -> ()
  | Some s ->
      Bytes.set_int64_be t.out (ppos + plen)
        (Auth.seal_mac s hdr (Bytes.unsafe_to_string t.out) ~pos:ppos ~len:plen));
  t.out_len <- at + 4 + body

let send ?session t (f : Frame.t) =
  let plen = String.length f.payload in
  queue ?session t f.hdr ~plen (fun b pos -> Bytes.blit_string f.payload 0 b pos plen)

let send_parts ?session t ~kind ~src ~dst ?(seq = 0) ps =
  queue ?session t { kind; flags = 0; src; dst; seq } ~plen:(Bin.parts_length ps) (fun b pos ->
      ignore
        (List.fold_left
           (fun pos p ->
             match p with
             | Bin.Flat s ->
                 Bytes.blit_string s 0 b pos (String.length s);
                 pos + String.length s
             | Bin.Payload c ->
                 let len = Chunk.length c in
                 Chunk.blit_to_bytes c ~src_pos:0 b ~dst_pos:pos ~len;
                 pos + len)
           pos ps))

let send_value ?session t ~kind ~src ~dst ?seq v =
  send_parts ?session t ~kind ~src ~dst ?seq (Bin.parts v)

(* The socket is non-blocking: [Unix.write] stops at the first write
   the socket refuses, and raises only when it refused the first. *)
let flush t =
  let rec go () =
    if t.out_lo < t.out_len then begin
      t.writes <- t.writes + 1;
      match Unix.write t.fd t.out t.out_lo (t.out_len - t.out_lo) with
      | n ->
          t.out_lo <- t.out_lo + n;
          go ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    end
  in
  go ();
  if t.out_lo = t.out_len then begin
    t.out_lo <- 0;
    t.out_len <- 0
  end

(* --- Receiving --------------------------------------------------------- *)

let buffered t = t.hi - t.lo

(* The validated length word of the next frame, once it has arrived. *)
let next_length t =
  if buffered t < 4 then None
  else Some (Frame.length_word (Bytes.unsafe_to_string t.inb) t.lo)

type view = { hdr : Frame.header; buf : string; pos : int; len : int }

(* The one framing path: cut the next whole frame and open it where it
   lies.  Its bytes stay put until [fill] next writes the buffer, which
   is what lets the caller decode the payload in place.  (The buffer is
   handed out as a string, as to the MAC: readers keep nothing.) *)
let take_view ?session t =
  match next_length t with
  | Some len when buffered t >= 4 + len ->
      let buf = Bytes.unsafe_to_string t.inb in
      let at = t.lo + 4 in
      t.lo <- at + len;
      if t.lo = t.hi then begin
        t.lo <- 0;
        t.hi <- 0
      end;
      let hdr = Frame.get_header buf at in
      let pos = at + Frame.header_bytes and plen = len - Frame.header_bytes in
      Some
        (match session with
        | None -> { hdr; buf; pos; len = plen }
        | Some sess ->
            { hdr = Auth.open_sub sess hdr buf ~pos ~len:plen; buf; pos; len = plen - 8 })
  | Some _ | None -> None

let copy v = { Frame.hdr = v.hdr; payload = String.sub v.buf v.pos v.len }
let take t = Option.map copy (take_view t)

let partial t =
  match next_length t with Some len -> buffered t < 4 + len | None -> false

let fill t =
  let avail = buffered t in
  if t.lo > 0 then begin
    Bytes.blit t.inb t.lo t.inb 0 avail;
    t.lo <- 0;
    t.hi <- avail
  end;
  (match next_length t with
  | Some len when 4 + len > Bytes.length t.inb ->
      let b = Bytes.create (4 + len) in
      Bytes.blit t.inb 0 b 0 avail;
      t.inb <- b
  | Some _ | None -> ());
  (* A full buffer holds whole frames not yet taken (a partial one has
     just been given room), and a read into no room returns 0, which
     would pass for end of file: read nothing. *)
  if t.hi < Bytes.length t.inb then (
    t.reads <- t.reads + 1;
    match Unix.read t.fd t.inb t.hi (Bytes.length t.inb - t.hi) with
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | 0 ->
        if avail = 0 then raise End_of_file
        else
          raise
            (Eden_kernel.Value.Protocol_error
               (Printf.sprintf "wire: peer closed mid-frame (%d bytes buffered)" avail))
    | r -> t.hi <- t.hi + r)

let rec recv ?session t =
  match take_view ?session t with
  | Some v -> copy v
  | None ->
      ignore (Unix.select [ t.fd ] [] [] (-1.0));
      fill t;
      recv ?session t
