(* The wire layer: binary Value codec under hostile input, frame
   round-trips, socket pairs, fault injection at the framing layer,
   the transport-wait stall exemption, and the headline contract — the
   multi-process cluster (one OS process per shard over real sockets)
   is byte-equivalent to the in-process deterministic oracle. *)

module Bin = Eden_wire.Bin
module Frame = Eden_wire.Frame
module Conn = Eden_wire.Conn
module Auth = Eden_wire.Auth
module Chunk = Eden_chunk.Chunk
module Faults = Eden_wire.Faults
module Transport = Eden_wire.Transport
module Value = Eden_kernel.Value
module Uid = Eden_kernel.Uid
module Kernel = Eden_kernel.Kernel
module Sched = Eden_sched.Sched
module Net = Eden_net.Net
module Codec = Eden_transput.Codec
module Pipeline = Eden_transput.Pipeline
module Cluster = Eden_par.Cluster
module Topo = Eden_par.Topo
module Check = Eden_check.Check
module Trace = Eden_check.Trace
module Workloads = Eden_check.Workloads

let check = Alcotest.check

let wire tr = Cluster.Wire { Cluster.wire_transport = tr; wire_faults = None; wire_auth = None }

let prop name ?(count = 100) gen f =
  Seed.to_alcotest (QCheck2.Test.make ~name ~count gen f)

let protocol_error name f =
  match f () with
  | exception Value.Protocol_error _ -> ()
  | exception e ->
      Alcotest.failf "%s: expected Protocol_error, got %s" name (Printexc.to_string e)
  | _ -> Alcotest.failf "%s: expected Protocol_error, decoded fine" name

(* --- Bin: Value codec ------------------------------------------------- *)

let value_gen =
  let open QCheck2.Gen in
  sized @@ fix (fun self n ->
      let leaf =
        oneof
          [
            return Value.Unit;
            map (fun b -> Value.Bool b) bool;
            map (fun i -> Value.Int i) int;
            map (fun f -> Value.Float f) float;
            return (Value.Float nan);
            map (fun s -> Value.Str s) string_small;
            map2
              (fun t s ->
                Value.Uid (Uid.of_wire ~tag:(Int64.of_int t) ~serial:s))
              nat nat;
          ]
      in
      if n <= 0 then leaf
      else
        oneof [ leaf; map (fun vs -> Value.List vs) (list_size (int_bound 4) (self (n / 2))) ])

(* Structural equality that treats NaN as equal to itself — the codec
   must round-trip the bits, not IEEE comparison semantics. *)
let value_eq a b = compare a b = 0

let prop_bin_roundtrip =
  prop "bin: decode inverts encode (every constructor, NaN included)" value_gen
    (fun v -> value_eq v (Bin.decode (Bin.encode v)))

let prop_bin_prefix_rejected =
  prop "bin: every strict prefix is a Protocol_error" ~count:60 value_gen (fun v ->
      let s = Bin.encode v in
      let ok = ref true in
      for n = 0 to String.length s - 1 do
        (match Bin.decode (String.sub s 0 n) with
        | exception Value.Protocol_error _ -> ()
        | _ -> ok := false);
        (* and cut-mid-frame must not desync decode_prefix either *)
        match Bin.decode_prefix (String.sub s 0 n) ~pos:0 with
        | exception Value.Protocol_error _ -> ()
        | _ when n = 0 -> ok := false
        | _, stop -> if stop > n then ok := false
      done;
      !ok)

let test_bin_trailing_garbage () =
  protocol_error "trailing byte" (fun () -> Bin.decode (Bin.encode (Value.Int 7) ^ "\x00"));
  protocol_error "trailing frame" (fun () ->
      Bin.decode (Bin.encode Value.Unit ^ Bin.encode Value.Unit))

let test_bin_hostile_headers () =
  (* A forged 4 GiB string length backed by 2 bytes must be rejected
     before any allocation (cheaply — this test would OOM otherwise). *)
  protocol_error "forged string length" (fun () -> Bin.decode "\x04\xff\xff\xff\xffab");
  protocol_error "forged list count" (fun () -> Bin.decode "\x06\xff\xff\xff\x00");
  protocol_error "unknown tag" (fun () -> Bin.decode "\x7fhello");
  protocol_error "empty input" (fun () -> Bin.decode "");
  protocol_error "truncated int" (fun () -> Bin.decode "\x02\x00\x01");
  (* 10_000 nested list-of-1 headers: the depth cap must fire, not the
     OCaml stack. *)
  let deep =
    String.concat "" (List.init 10_000 (fun _ -> "\x06\x00\x00\x00\x01")) ^ "\x00"
  in
  protocol_error "crafted deep nesting" (fun () -> Bin.decode deep)

let test_bin_size_law () =
  (* The simulated latency model and the real transport must agree on
     what a value costs: wire size is Value.size plus one tag byte per
     node (for Unit the tag IS the value, so no extra byte). *)
  let rec tag_overhead = function
    | Value.Unit -> 0
    | Value.List vs -> List.fold_left (fun a v -> a + tag_overhead v) 1 vs
    | _ -> 1
  in
  List.iter
    (fun v ->
      check Alcotest.int
        (Printf.sprintf "encoded size matches Value.size for %s" (Value.preview v))
        (Value.size v + tag_overhead v)
        (String.length (Bin.encode v)))
    [
      Value.Unit;
      Value.Bool true;
      Value.Int (-1);
      Value.Float 1.5;
      Value.Str "hello";
      Value.List [ Value.Int 1; Value.Str "x"; Value.Unit ];
      Value.List [];
    ]

(* A decode that fails part-way has already made a chunk for every
   chunk value before the fault; it must release them, or each corrupt
   frame leaks a chunk view and root. *)
let test_bin_failed_decode_releases_chunks () =
  let c = Chunk.of_string "chunk payload" in
  let pair = Bin.encode (Value.List [ Value.Chunk c; Value.Int 1 ]) in
  let single = Bin.encode (Value.Chunk c) in
  Chunk.release c;
  let views = Chunk.live_views () and roots = Chunk.live_roots () in
  let cut = String.sub pair 0 (String.length pair - 3) in
  protocol_error "cut 3 bytes short" (fun () -> Bin.decode cut);
  protocol_error "prefix cut 3 bytes short" (fun () -> Bin.decode_prefix cut ~pos:0);
  protocol_error "whole chunk, then a trailing byte" (fun () -> Bin.decode (single ^ "\x00"));
  check Alcotest.int "chunk views back at baseline" views (Chunk.live_views ());
  check Alcotest.int "chunk roots back at baseline" roots (Chunk.live_roots ());
  (* A decode that succeeds still hands its chunks to the caller. *)
  match Bin.decode pair with
  | Value.List [ Value.Chunk d; Value.Int 1 ] ->
      check Alcotest.int "the caller owns the decoded chunk" (views + 1) (Chunk.live_views ());
      check Alcotest.string "payload intact" "chunk payload" (Chunk.to_string d);
      Chunk.release d
  | v -> Alcotest.failf "decoded %s" (Value.preview v)

(* --- Frame ------------------------------------------------------------ *)

let frame_gen =
  let open QCheck2.Gen in
  let kind =
    oneofl
      Frame.[ Request; Reply; Idle; Shutdown; Stats ]
  in
  map
    (fun (kind, (flags, src, dst), seq, payload) ->
      Frame.make ~kind ~flags ~src ~dst ~seq payload)
    (tup4 kind
       (tup3 (int_bound 255) (int_bound 255) (int_bound 255))
       (int_bound 0xFFFFFFFF) string_small)

let prop_frame_roundtrip =
  prop "frame: decode inverts encode for every message kind" frame_gen (fun f ->
      Frame.decode (Frame.encode f) = f)

let test_frame_malformed () =
  protocol_error "short input" (fun () -> Frame.decode "\x00\x00");
  protocol_error "length below header" (fun () -> Frame.decode "\x00\x00\x00\x03abc");
  (* An adversarial length prefix: 0xFFFFFFFF exceeds the cap and is
     rejected before the decoder trusts it. *)
  protocol_error "length above cap" (fun () ->
      Frame.decode ("\xff\xff\xff\xff" ^ String.make 8 '\x00'));
  protocol_error "unknown kind" (fun () ->
      Frame.decode "\x00\x00\x00\x08\x63\x00\x00\x00\x00\x00\x00\x00");
  protocol_error "length disagrees with bytes" (fun () ->
      Frame.decode "\x00\x00\x00\x09\x01\x00\x00\x00\x00\x00\x00\x00")

(* --- Transport.pair ------------------------------------------------------ *)

let test_transport_pair () =
  List.iter
    (fun kind ->
      let name = Transport.kind_name kind in
      let a, b = Transport.pair kind in
      Fun.protect
        ~finally:(fun () -> List.iter (fun fd -> try Unix.close fd with _ -> ()) [ a; b ])
        (fun () ->
          let ping = Frame.make ~kind:Frame.Request ~src:0 ~dst:1 ~seq:1 "ping" in
          let pong = Frame.make ~kind:Frame.Reply ~src:1 ~dst:0 ~seq:1 "pong" in
          Frame.write a ping;
          check Alcotest.bool (name ^ ": first end to second") true (Frame.read b = ping);
          Frame.write b pong;
          check Alcotest.bool (name ^ ": second end to first") true (Frame.read a = pong);
          if kind = Transport.Tcp then
            List.iter
              (fun fd ->
                check Alcotest.bool (name ^ ": TCP_NODELAY set") true
                  (Unix.getsockopt fd Unix.TCP_NODELAY))
              [ a; b ];
          Unix.close a;
          match Frame.read b with
          | exception End_of_file -> ()
          | _ -> Alcotest.failf "%s: read a frame after the other end closed" name))
    [ Transport.Unix_socket; Transport.Tcp ]

(* --- Conn: buffered framing ---------------------------------------------- *)

let with_pair f =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> List.iter (fun fd -> try Unix.close fd with _ -> ()) [ a; b ])
    (fun () -> f a b)

(* Everything [fd] holds right now (the writer has finished). *)
let drain_bytes fd =
  let buf = Buffer.create 256 and b = Bytes.create 4096 in
  let rec go () =
    match Unix.select [ fd ] [] [] 0.0 with
    | [], _, _ -> Buffer.contents buf
    | _ ->
        let n = Unix.read fd b 0 4096 in
        Buffer.add_subbytes buf b 0 n;
        if n > 0 then go () else Buffer.contents buf
  in
  go ()

let readable fd = match Unix.select [ fd ] [] [] 0.0 with [], _, _ -> false | _ -> true

let test_conn_bytes_identical () =
  let frames =
    [
      Frame.make ~kind:Frame.Request ~src:1 ~dst:2 ~seq:9 (Bin.encode (Value.Str "hello"));
      Frame.make ~kind:Frame.Idle ~src:2 ~dst:0 ~seq:3 "";
      Frame.make ~kind:Frame.Reply ~flags:1 ~src:0 ~dst:1 ~seq:0xFFFFFFFF
        (String.make 5000 'x');
    ]
  in
  with_pair (fun a b ->
      let c = Conn.create a in
      List.iter (Conn.send c) frames;
      Conn.flush c;
      check Alcotest.string "queued frames = their encodings, back to back"
        (String.concat "" (List.map Frame.encode frames))
        (drain_bytes b));
  (* send_value puts the same bytes on the socket as encoding the value
     first, chunk payloads included. *)
  let ch = Chunk.of_string (String.make 3000 'c') in
  let v = Value.List [ Value.Str "deposit"; Value.Chunk ch; Value.Int 7 ] in
  with_pair (fun a b ->
      let c = Conn.create a in
      Conn.send_value c ~kind:Frame.Request ~src:1 ~dst:2 ~seq:5 v;
      Conn.flush c;
      check Alcotest.string "send_value = Frame.encode (make (Bin.encode v))"
        (Frame.encode (Frame.make ~kind:Frame.Request ~src:1 ~dst:2 ~seq:5 (Bin.encode v)))
        (drain_bytes b));
  (* Sealed on the way out, in place: the same bytes as Auth.seal, and
     opened in place on the way in. *)
  let community = Auth.community ~id:3L ~key:"0123456789abcdef" in
  let session () = Auth.session community ~token:11L in
  let tx = session () and ref_tx = session () in
  let rx = session () and ref_rx = session () in
  with_pair (fun a b ->
      let c = Conn.create a in
      List.iter (Conn.send ~session:tx c) frames;
      Conn.send_value ~session:tx c ~kind:Frame.Reply ~src:2 ~dst:0 ~seq:1 v;
      Conn.flush c;
      let sealed =
        List.map (Auth.seal ref_tx)
          (frames @ [ Frame.make ~kind:Frame.Reply ~src:2 ~dst:0 ~seq:1 (Bin.encode v) ])
      in
      let wire = drain_bytes b in
      check Alcotest.string "sealed frames = Auth.seal's bytes"
        (String.concat "" (List.map Frame.encode sealed))
        wire;
      let r = Conn.create b in
      ignore (Unix.write_substring a wire 0 (String.length wire));
      List.iter
        (fun f ->
          check Alcotest.bool "opened in place = Auth.open_" true
            (Conn.recv ~session:rx r = Auth.open_ ref_rx f))
        sealed);
  Chunk.release ch

(* Writes [wire] to [a] in pieces of the [splits] sizes, cycled, and
   after each one fills [r] (reading [b]) and takes every whole frame,
   until [b] has nothing left: so frames arrive whole, cut anywhere,
   and several to a read. *)
let write_in_splits a b r wire splits ~take_all =
  let rec write pos splits =
    if pos < String.length wire then begin
      let step, rest =
        match splits with [] -> (String.length wire, []) | s :: tl -> (s, tl @ [ s ])
      in
      let n = min step (String.length wire - pos) in
      ignore (Unix.write_substring a wire pos n);
      while readable b do
        Conn.fill r;
        take_all ()
      done;
      write (pos + n) rest
    end
  in
  write 0 splits

(* Random frame sequences written in random byte splits decode to the
   same frames. *)
let prop_conn_split_roundtrip =
  prop "conn: frames written in random byte splits decode to the same frames" ~count:60
    QCheck2.Gen.(pair (list_size (int_range 1 12) frame_gen) (list_size (int_range 1 40) (int_range 1 700)))
    (fun (frames, splits) ->
      with_pair (fun a b ->
          let wire = String.concat "" (List.map Frame.encode frames) in
          let r = Conn.create b in
          let got = ref [] in
          let rec take_all () =
            match Conn.take r with
            | Some f ->
                got := f :: !got;
                take_all ()
            | None -> ()
          in
          write_in_splits a b r wire splits ~take_all;
          List.rev !got = frames && not (Conn.partial r)))

(* Decoding in place: random values, some carrying chunks, go out as
   frames, plain or sealed, and arrive in random byte splits, so [fill]
   moves a partial frame over bytes already decoded.  Each payload
   decodes where it lies to what [Bin.decode] makes of a copy of it,
   and once every frame is in, each decoded value still equals the one
   sent: none aliases the input buffer. *)
let prop_conn_decode_in_place =
  let community = Auth.community ~id:3L ~key:"0123456789abcdef" in
  let rec same a b =
    match (a, b) with
    | Value.Chunk x, Value.Chunk y -> Chunk.equal x y
    | Value.List xs, Value.List ys -> List.equal same xs ys
    | _ -> value_eq a b
  in
  let rec release = function
    | Value.Chunk c -> Chunk.release c
    | Value.List vs -> List.iter release vs
    | _ -> ()
  in
  prop "conn: frames decoded in place = Bin.decode of their copies" ~count:60
    QCheck2.Gen.(
      triple bool
        (list_size (int_range 1 10)
           (pair value_gen (list_size (int_bound 2) (string_size (int_bound 3000)))))
        (list_size (int_range 1 40) (int_range 1 700)))
    (fun (sealed, items, splits) ->
      let base = (Chunk.live_roots (), Chunk.live_views ()) in
      let session () = if sealed then Some (Auth.session community ~token:11L) else None in
      let tx = session () and rx = session () in
      let sent =
        List.map
          (fun (v, payloads) ->
            Value.List (v :: List.map (fun p -> Value.Chunk (Chunk.of_string p)) payloads))
          items
      in
      let got = ref [] in
      let ok =
        with_pair (fun a b ->
            let w = Conn.create a and r = Conn.create b in
            List.iteri
              (fun i v -> Conn.send_value ?session:tx w ~kind:Frame.Request ~src:1 ~dst:2 ~seq:i v)
              sent;
            Conn.flush w;
            let wire = drain_bytes b in
            let agree = ref true in
            let rec take_all () =
              match Conn.take_view ?session:rx r with
              | Some f ->
                  let v = Bin.decode_sub f.buf ~pos:f.pos ~len:f.len in
                  let copy = Bin.decode (String.sub f.buf f.pos f.len) in
                  agree := !agree && f.hdr.seq = List.length !got && same v copy;
                  release copy;
                  got := v :: !got;
                  take_all ()
              | None -> ()
            in
            write_in_splits a b r wire splits ~take_all;
            !agree && List.equal same (List.rev !got) sent)
      in
      List.iter release (sent @ !got);
      ok && (Chunk.live_roots (), Chunk.live_views ()) = base)

(* A sealed frame whose payload was altered fails its MAC before a byte
   of it is decoded, so no chunk root or view is made for it. *)
let test_conn_failed_mac_decodes_nothing () =
  let community = Auth.community ~id:3L ~key:"0123456789abcdef" in
  let tx = Auth.session community ~token:11L and rx = Auth.session community ~token:11L in
  let ch = Chunk.of_string (String.make 5000 'p') in
  let request =
    Value.List [ Value.Uid (Uid.of_wire ~tag:1L ~serial:2); Value.Str "deposit"; Value.Chunk ch ]
  in
  with_pair (fun a b ->
      let w = Conn.create a and r = Conn.create b in
      Conn.send_value ~session:tx w ~kind:Frame.Request ~src:1 ~dst:2 ~seq:1 request;
      Conn.send_value ~session:tx w ~kind:Frame.Request ~src:1 ~dst:2 ~seq:2 request;
      Conn.flush w;
      let wire = Bytes.of_string (drain_bytes b) in
      (* The middle of the second frame lies in its chunk's bytes. *)
      let at = Bytes.length wire * 3 / 4 in
      check Alcotest.char "a chunk byte" 'p' (Bytes.get wire at);
      Bytes.set wire at 'q';
      ignore (Unix.write a wire 0 (Bytes.length wire));
      let rec next () =
        match Conn.take_view ~session:rx r with
        | Some f -> f
        | None ->
            ignore (Unix.select [ b ] [] [] 5.0);
            Conn.fill r;
            next ()
      in
      (match
         let f = next () in
         Bin.decode_sub f.buf ~pos:f.pos ~len:f.len
       with
      | Value.List [ _; _; Value.Chunk c ] ->
          check Alcotest.bool "the intact frame decodes" true (Chunk.equal c ch);
          Chunk.release c
      | v -> Alcotest.failf "decoded %s" (Value.preview v));
      let roots = Chunk.live_roots () and views = Chunk.live_views () in
      (match next () with
      | exception Value.Protocol_error m ->
          check Alcotest.string "refused for its MAC" "auth: frame MAC mismatch" m
      | _ -> Alcotest.fail "the altered frame was taken");
      check Alcotest.int "no root made" roots (Chunk.live_roots ());
      check Alcotest.int "no view made" views (Chunk.live_views ()));
  Chunk.release ch

let test_conn_errors () =
  (* A hostile length word: rejected before the buffer grows for it. *)
  with_pair (fun a b ->
      let r = Conn.create b in
      ignore (Unix.write_substring a ("\xff\xff\xff\xff" ^ String.make 8 '\x00') 0 12);
      protocol_error "hostile length word" (fun () -> Conn.recv r);
      check Alcotest.int "buffer did not grow" 4096 (Conn.capacity r));
  (* EOF at a frame boundary is End_of_file; mid-frame it is a protocol
     error. *)
  let f = Frame.make ~kind:Frame.Request ~src:1 ~dst:0 ~seq:4 "payload" in
  let e = Frame.encode f in
  with_pair (fun a b ->
      let r = Conn.create b in
      ignore (Unix.write_substring a e 0 (String.length e));
      Unix.shutdown a Unix.SHUTDOWN_SEND;
      check Alcotest.bool "whole frame read" true (Conn.recv r = f);
      match Conn.recv r with
      | exception End_of_file -> ()
      | _ -> Alcotest.fail "read past a clean close");
  with_pair (fun a b ->
      let r = Conn.create b in
      ignore (Unix.write_substring a e 0 (String.length e - 3));
      Unix.shutdown a Unix.SHUTDOWN_SEND;
      protocol_error "close mid-frame" (fun () -> Conn.recv r));
  (* The buffer grows to a frame bigger than it, and no further. *)
  let big = Frame.make ~kind:Frame.Reply ~src:1 ~dst:0 (String.make 10_000 'b') in
  with_pair (fun a b ->
      let w = Conn.create a and r = Conn.create b in
      Conn.send w big;
      Conn.flush w;
      check Alcotest.bool "big frame read" true (Conn.recv r = big);
      check Alcotest.int "buffer grew to the frame" (Frame.size big) (Conn.capacity r))

(* Whole frames not yet taken fill the buffer, which has grown to
   exactly the first: [fill] has no room, reads nothing and leaves them
   intact, and a close at a frame boundary is still End_of_file. *)
let test_conn_fill_without_room () =
  let big = Frame.make ~kind:Frame.Reply ~src:1 ~dst:0 ~seq:1 (String.make 5_000 'f') in
  let small = Frame.make ~kind:Frame.Reply ~src:1 ~dst:0 ~seq:2 "tail" in
  with_pair (fun a b ->
      let w = Conn.create a and r = Conn.create b in
      Conn.send w big;
      Conn.send w small;
      Conn.flush w;
      Unix.shutdown a Unix.SHUTDOWN_SEND;
      while Conn.partial r || Conn.capacity r < Frame.size big do
        Conn.fill r
      done;
      check Alcotest.int "the buffer is the first frame" (Frame.size big) (Conn.capacity r);
      let reads = Conn.reads r in
      Conn.fill r;
      Conn.fill r;
      check Alcotest.int "no room, no read" reads (Conn.reads r);
      check Alcotest.bool "first frame intact" true (Conn.take r = Some big);
      check Alcotest.bool "second frame intact" true (Conn.recv r = small);
      match Conn.recv r with
      | exception End_of_file -> ()
      | _ -> Alcotest.fail "read past a clean close")

let test_conn_one_write_per_flush () =
  with_pair (fun a b ->
      let w = Conn.create a and r = Conn.create b in
      let frames =
        List.init 20 (fun i -> Frame.make ~kind:Frame.Request ~src:1 ~dst:2 ~seq:i (string_of_int i))
      in
      List.iter (Conn.send w) frames;
      check Alcotest.int "nothing written before the flush" 0 (Conn.writes w);
      Conn.flush w;
      check Alcotest.int "20 frames, one write" 1 (Conn.writes w);
      check Alcotest.int "nothing left queued" 0 (Conn.pending w);
      Conn.flush w;
      check Alcotest.int "an empty flush writes nothing" 1 (Conn.writes w);
      let got = List.init 20 (fun _ -> Conn.recv r) in
      check Alcotest.bool "every frame arrives" true (got = frames);
      check Alcotest.int "and one read takes them all" 1 (Conn.reads r))

(* A reader that has stalled cannot wedge its writer: the flush writes
   what the socket holds and returns with the rest queued, and the rest
   goes out, intact, in later flushes once the reader drains. *)
let test_conn_flush_never_blocks () =
  with_pair (fun a b ->
      let w = Conn.create a and r = Conn.create b in
      let frames =
        List.init 64 (fun i ->
            Frame.make ~kind:Frame.Reply ~src:1 ~dst:2 ~seq:i
              (String.make 32768 (Char.chr (65 + (i mod 26)))))
      in
      List.iter (Conn.send w) frames;
      let total = Conn.pending w in
      Conn.flush w;
      check Alcotest.bool "the flush returned with the rest still queued" true
        (Conn.pending w > 0 && Conn.pending w < total);
      let got = ref [] in
      while List.length !got < 64 do
        (match Unix.select [ b ] (if Conn.pending w > 0 then [ a ] else []) [] 5.0 with
        | [], [], _ -> Alcotest.fail "neither end can move"
        | _ -> ());
        Conn.flush w;
        Conn.fill r;
        let rec take_all () =
          match Conn.take r with
          | Some f ->
              got := f :: !got;
              take_all ()
          | None -> ()
        in
        take_all ()
      done;
      check Alcotest.int "nothing left queued" 0 (Conn.pending w);
      check Alcotest.bool "every frame arrives intact and in order" true (List.rev !got = frames))

(* The hub copies every chunk it sends to a leaf into the frame; the
   handle it was given must be released once the bytes are queued, so a
   run leaves the hub's view gauge where it found it. *)
let test_wire_releases_sent_chunks () =
  let module T = Eden_transput in
  let module Cat = Eden_filters.Catalog in
  let text = String.concat "" (List.init 40 (Printf.sprintf "line %02d of the document\n")) in
  let run mode =
    let c = Cluster.create mode ~shards:2 () in
    let src =
      T.Stage.source_ro (Cluster.kernel c 0) ~name:"source" ~capacity:3
        (Eden_filters.Chunkline.cut_gen ~cut:97 text)
    in
    let up = Cluster.proxy c ~shard:1 ~ops:[ T.Proto.transfer_op ] ~target:(0, src) in
    let f =
      T.Stage.filter_ro (Cluster.kernel c 1) ~name:"F1" ~capacity:3
        ~flowctl:(Eden_flowctl.Flowctl.chunked ~chunk_bytes:256 ())
        ~upstream:up Cat.chunked_upcase
    in
    let sink_up = Cluster.proxy c ~shard:0 ~ops:[ T.Proto.transfer_op ] ~target:(1, f) in
    let out = Buffer.create 1024 in
    let k0 = Cluster.kernel c 0 in
    let sink =
      T.Stage.sink_ro k0 ~name:"sink" ~flowctl:(Eden_flowctl.Flowctl.chunked ~chunk_bytes:256 ())
        ~upstream:sink_up (function
        | Value.Chunk ch ->
            Buffer.add_string out (Chunk.to_string ch);
            Chunk.release ch
        | v -> Alcotest.failf "unexpected %s" (Value.preview v))
    in
    Kernel.poke k0 sink;
    let views = Chunk.live_views () in
    Cluster.run c;
    (Buffer.contents out, Chunk.live_views () - views)
  in
  let oracle, _ = run Cluster.Deterministic in
  check Alcotest.string "oracle upcases" (String.uppercase_ascii text) oracle;
  let got, delta = run (wire Transport.Unix_socket) in
  check Alcotest.string "wire stream = oracle" oracle got;
  check Alcotest.int "hub's chunk views back to their pre-run value" 0 delta

(* --- Faults at the framing layer -------------------------------------- *)

let test_faults_accounting () =
  (* A Lose event is consumed and charged to loss. *)
  let f = Faults.of_script [ Faults.Lose ] in
  check Alcotest.bool "frame consumes Lose" true (Faults.apply f ~size:20 = Faults.Drop);
  let m = Faults.meter f in
  check Alcotest.int "loss charged" 1 m.Net.dropped_loss;
  check Alcotest.int "not to partition" 0 m.Net.dropped_partition;
  check Alcotest.int "script consumed" 0 (Faults.remaining f);
  (* Exhausted script passes; partition overrides it. *)
  check Alcotest.bool "exhausted script passes" true (Faults.apply f ~size:20 = Faults.Pass);
  Faults.partition f;
  check Alcotest.bool "partitioned drops" true (Faults.apply f ~size:20 = Faults.Drop);
  check Alcotest.int "partition charged" 1 (Faults.meter f).Net.dropped_partition;
  Faults.heal f;
  check Alcotest.bool "healed passes" true (Faults.apply f ~size:20 = Faults.Pass);
  let m = Faults.meter f in
  check Alcotest.int "sum invariant" m.Net.dropped
    (m.Net.dropped_loss + m.Net.dropped_partition)

let test_faults_of_events () =
  (* The simulator emits a loss pick for every frame and may add a
     partition note for the same frame; one wire frame must consume
     exactly one event. *)
  let f =
    Faults.of_events
      [
        ("net.loss", 0);
        ("net.loss", 1);
        ("net.loss", 1); ("net.partition", 1);
        ("sched.pick", 3);
        ("net.loss", 0);
      ]
  in
  check Alcotest.int "four frames scripted" 4 (Faults.remaining f);
  check Alcotest.bool "frame 0 passes" true
    (Faults.apply f ~size:1 = Faults.Pass);
  check Alcotest.bool "frame 1 lost" true
    (Faults.apply f ~size:1 = Faults.Drop);
  check Alcotest.bool "frame 2 cut" true
    (Faults.apply f ~size:1 = Faults.Drop);
  check Alcotest.bool "frame 3 passes" true
    (Faults.apply f ~size:1 = Faults.Pass);
  let m = Faults.meter f in
  check Alcotest.int "one loss" 1 m.Net.dropped_loss;
  check Alcotest.int "one partition (folded pair)" 1 m.Net.dropped_partition

(* --- Codec.batch under adversarial frames ------------------------------ *)

let test_codec_batch_adversarial () =
  let c = Codec.batch ~max_items:8 Codec.int in
  let decode v = c.Codec.decode v in
  protocol_error "negative length" (fun () ->
      decode (Value.List [ Value.Int (-1) ]));
  protocol_error "oversized length" (fun () ->
      decode (Value.List (Value.Int 9 :: List.init 9 (fun i -> Value.Int i))));
  protocol_error "truncated batch" (fun () ->
      decode (Value.List [ Value.Int 3; Value.Int 0; Value.Int 1 ]));
  protocol_error "padded batch" (fun () ->
      decode (Value.List [ Value.Int 1; Value.Int 0; Value.Int 1 ]));
  protocol_error "garbage header" (fun () ->
      decode (Value.List [ Value.Str "n"; Value.Int 0 ]));
  protocol_error "not a batch at all" (fun () -> decode (Value.Str "x"));
  (* A huge claimed length must not pre-allocate anything: the check
     compares against the items actually present. *)
  protocol_error "forged huge length" (fun () ->
      decode (Value.List [ Value.Int max_int ]))

let prop_codec_batch_cut_mid_frame =
  (* End to end through the byte layer: an encoded batch cut anywhere
     mid-frame surfaces as a clean Protocol_error from Bin.decode — a
     partial batch can never be accepted. *)
  prop "codec.batch: cut-mid-frame and garbage headers stay protocol errors"
    ~count:40
    QCheck2.Gen.(list_size (int_bound 8) int)
    (fun xs ->
      let c = Codec.batch Codec.int in
      let bytes = Bin.encode (c.Codec.encode xs) in
      let ok = ref true in
      for n = 1 to String.length bytes - 1 do
        match Bin.decode (String.sub bytes 0 n) with
        | exception Value.Protocol_error _ -> ()
        | _ -> ok := false
      done;
      (match Bin.decode ("\x06\xde\xad\xbe\xef" ^ bytes) with
      | exception Value.Protocol_error _ -> ()
      | _ -> ok := false);
      (* round trip still holds on the intact frame *)
      (match c.Codec.decode (Bin.decode bytes) with
      | ys -> if ys <> xs then ok := false
      | exception _ -> ok := false);
      !ok)

(* --- Stall report: transport-blocked stages are not stalls ------------- *)

let test_stall_report_transport_exemption () =
  (* A proxy whose forwarded request is in flight to another shard is
     waiting on the wire, not stalled.  Pump only shard 0 so the
     round-trip can never complete: before the fix this reported the
     proxy as a stall. *)
  let c = Cluster.create Cluster.Deterministic ~shards:2 () in
  let k1 = Cluster.kernel c 1 in
  let target =
    Kernel.create_eject k1 ~type_name:"receiver" (fun _ctx ~passive:_ ->
        [ ("Ping", fun _ -> Value.Unit) ])
  in
  let puid = Cluster.proxy c ~shard:0 ~ops:[ "Ping" ] ~target:(1, target) in
  let k0 = Cluster.kernel c 0 in
  Kernel.spawn_driver k0 (fun ctx ->
      ignore (Kernel.invoke ctx puid ~op:"Ping" Value.Unit));
  Sched.run (Kernel.sched k0);
  check Alcotest.bool "proxy is in a transport wait" true
    (Kernel.in_transport_wait k0 puid);
  let stages = [ ("proxy", puid) ] in
  let stalled_on stalls =
    List.exists (fun s -> s.Pipeline.stage = Some "proxy") stalls
  in
  check Alcotest.bool "default report exempts the transport wait" false
    (stalled_on (Pipeline.stall_report k0 ~stages));
  check Alcotest.bool "still visible on demand" true
    (stalled_on (Pipeline.stall_report ~include_transport:true k0 ~stages));
  Kernel.crash k0 puid;
  check Alcotest.bool "crash clears the wait flag" false
    (Kernel.in_transport_wait k0 puid)

(* --- Multi-process equivalence ----------------------------------------- *)

let transports =
  [ ("unix", wire Transport.Unix_socket); ("tcp", wire Transport.Tcp) ]

let community () = Auth.community ~id:0x7E57L ~key:"wire-test-key-16"

let authenticated tr =
  ( "auth " ^ Transport.kind_name tr,
    Cluster.Wire
      { Cluster.wire_transport = tr; wire_faults = None; wire_auth = Some (community ()) } )

(* Every meter counter a leaf's Stats frame carries but the two drop
   buckets, which [dropped] sums. *)
let meter_counters (m : Kernel.Meter.snapshot) =
  let n = m.net in
  [
    ("invocations", m.invocations); ("replies", m.replies); ("activations", m.activations);
    ("Ejects created", m.ejects_created); ("Ejects live", m.ejects_live);
    ("crashes", m.crashes); ("timeouts", m.timeouts); ("net sent", n.Net.sent);
    ("net delivered", n.delivered); ("net dropped", n.dropped); ("net bytes", n.bytes);
  ]

(* Each wire run against the deterministic oracle: byte-identical sink
   streams, equal op counts, meter counters, per-stage flows and
   cross-shard messages.  Makespans depend on timing and stay out. *)
let matches_oracle tag (oracle : Topo.outcome) (o : Topo.outcome) =
  check Alcotest.bool (tag ^ ": eos clean") true o.eos_clean;
  check
    Alcotest.(list (pair string string))
    (tag ^ ": byte-identical streams") oracle.sinks o.sinks;
  check Alcotest.(list (pair string int)) (tag ^ ": op counts") oracle.op_counts o.op_counts;
  List.iter2
    (fun (name, want) (_, got) -> check Alcotest.int (tag ^ ": " ^ name) want got)
    (meter_counters oracle.meter) (meter_counters o.meter);
  check Alcotest.(list (triple string int int)) (tag ^ ": flows") oracle.flows o.flows;
  check Alcotest.int (tag ^ ": cross messages") oracle.cross_messages o.cross_messages

let equivalence_fanin ~domains modes =
  let topo =
    Topo.fanin ~domains { Topo.default with branches = 4; filters = 1; items = 12; work = 50 }
  in
  let oracle = Topo.run Cluster.Deterministic ~domains topo in
  check Alcotest.int "oracle consumed all" (4 * 12) (Topo.consumed oracle);
  List.iter
    (fun (name, mode) ->
      matches_oracle (Printf.sprintf "fan-in %s/%d shards" name domains) oracle
        (Topo.run mode ~domains topo))
    modes

let equivalence_f2 ~domains modes =
  let run mode = Topo.run mode ~domains (Topo.f2 ~batch:2 ~domains ~filters:3 ~items:16 ()) in
  let oracle = run Cluster.Deterministic in
  check Alcotest.int "oracle consumed all" 16 (Topo.consumed oracle);
  List.iter
    (fun (name, mode) ->
      matches_oracle (Printf.sprintf "F2 %s/%d shards" name domains) oracle (run mode))
    modes

let test_equivalence_fanin () = equivalence_fanin ~domains:3 transports
let test_equivalence_f2 () = List.iter (fun domains -> equivalence_f2 ~domains transports) [ 2; 3 ]

(* Four and five shards place the F2 chain over three and four leaves,
   so several leaf pairs talk over their own links at once. *)
let test_equivalence_multi_leaf () =
  List.iter
    (fun domains ->
      equivalence_f2 ~domains transports;
      equivalence_fanin ~domains transports)
    [ 4; 5 ];
  equivalence_f2 ~domains:4 [ authenticated Transport.Unix_socket; authenticated Transport.Tcp ]

let test_equivalence_f4 () =
  let run mode = Topo.run mode ~domains:3 (Topo.f4_terminal ~domains:3 ~items:16 ()) in
  let oracle = run Cluster.Deterministic in
  check Alcotest.int "oracle terminal lines" 16 (Topo.consumed oracle);
  List.iter
    (fun (name, mode) ->
      let o = run mode in
      check
        Alcotest.(list (pair string string))
        (name ^ ": terminal stream byte-identical") oracle.sinks o.sinks;
      (* The window interleaves its watched streams nondeterministically
         (one worker per stream); the per-label subsequences are the
         deterministic surface. *)
      check
        Alcotest.(list (pair string (list string)))
        (name ^ ": per-label report streams") oracle.reports o.reports;
      check Alcotest.int (name ^ ": invocations") oracle.meter.Kernel.Meter.invocations
        o.meter.Kernel.Meter.invocations)
    transports

(* --- Replay: a simulated fault schedule reproduces on real sockets ----- *)

let replay_dir = "_check"

(* 4 seq-stamped one-way frames offered to the injector and sent over a
   real socket pair to a forked child's end; returns the seqs that made
   it across. *)
let send_over_wire faults =
  let tx, rx = Transport.pair Transport.Unix_socket in
  flush stdout;
  flush stderr;
  let prev = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  let finish () = Sys.set_signal Sys.sigpipe prev in
  match Unix.fork () with
  | 0 ->
      (* Sender child: the injector sits between frame construction and
         the socket write — exactly where the hub applies it. *)
      let rc =
        try
          Unix.close rx;
          for seq = 0 to 3 do
            let f =
              Frame.make ~kind:Frame.Request ~flags:1 ~src:1 ~dst:0
                ~seq
                (Bin.encode (Value.Int seq))
            in
            (match Faults.apply faults ~size:(Frame.size f) with
            | Faults.Pass -> Frame.write tx f
            | Faults.Delay d ->
                Unix.sleepf d;
                Frame.write tx f
            | Faults.Drop -> ())
          done;
          Unix.close tx;
          0
        with _ -> 2
      in
      Unix._exit rc
  | pid ->
      Fun.protect ~finally:finish (fun () ->
          Unix.close tx;
          let got = ref [] in
          (try
             while true do
               let f = Frame.read rx in
               got := f.Frame.hdr.Frame.seq :: !got
             done
           with End_of_file -> ());
          Unix.close rx;
          let _, status = Unix.waitpid [] pid in
          check Alcotest.bool "sender exited cleanly" true (status = Unix.WEXITED 0);
          List.rev !got)

let test_replay_reproduces_on_wire () =
  (* Find the lossy_ack mutant in simulation; its minimized replay file
     records the per-frame loss schedule as net.loss decisions.  Fed
     through Faults.of_events, the same schedule must knock the same
     number of frames off a real socket. *)
  let f =
    Check.find_bug ~budget:100 ~policy:Eden_check.Policy.Random ~seed:Seed.base
      ~replay_dir ~name:"wire-lossy-ack" (Workloads.lossy_ack ~mutant:true)
  in
  let path =
    match f.Check.replay_path with
    | Some p -> p
    | None -> Alcotest.fail "no replay file written"
  in
  let _meta, trace = Check.load_replay ~path in
  let events = Trace.decisions ~kind:"net.loss" trace in
  check Alcotest.int "one loss decision per send" 4 (List.length events);
  let drops = List.length (List.filter (fun (_, v) -> v = 1) events) in
  check Alcotest.bool "the minimized schedule drops something" true (drops >= 1);
  (* Oracle: a clean injector delivers everything. *)
  check
    Alcotest.(list int)
    "clean link delivers 0..3" [ 0; 1; 2; 3 ]
    (send_over_wire (Faults.none ()));
  (* The replayed schedule: the same frames go missing on the socket. *)
  let got = send_over_wire (Faults.of_events events) in
  check Alcotest.int "replayed schedule drops the same frames" (4 - drops)
    (List.length got);
  let expected =
    List.filteri (fun i _ -> List.nth events i = ("net.loss", 0)) [ 0; 1; 2; 3 ]
  in
  check Alcotest.(list int) "exactly the scripted seqs survive" expected got

(* --- Wire-mode fault injection end to end ------------------------------ *)

let test_wire_cluster_with_faults () =
  (* A Slow event must only delay, never change the byte stream. *)
  let topo = Topo.fanin ~domains:2 { Topo.default with branches = 2; filters = 1; items = 6; work = 10 } in
  let oracle = Topo.run Cluster.Deterministic ~domains:2 topo in
  let faults = Faults.of_script [ Faults.Slow 0.02; Faults.Slow 0.01 ] in
  let o =
    Topo.run
      (Cluster.Wire
         { Cluster.wire_transport = Transport.Unix_socket;
           wire_faults = Some faults;
           wire_auth = None })
      ~domains:2 topo
  in
  check Alcotest.(list (pair string string)) "delays do not corrupt the stream" oracle.sinks
    o.sinks;
  check Alcotest.int "both delays were exercised" 0 (Faults.remaining faults);
  let m = Faults.meter faults in
  check Alcotest.int "nothing dropped" 0 m.Net.dropped;
  check Alcotest.int "every offered frame delivered" m.Net.sent m.Net.delivered;
  check Alcotest.bool "the delayed frames are in the meter" true (m.Net.delivered >= 2)

(* --- Failures and faults in a wire cluster ------------------------------ *)

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* A 2-shard cluster whose leaf handler raises: the hub's driver never
   gets its reply, and the run must say why. *)
let test_leaf_fiber_failure () =
  let run mode =
    let c = Cluster.create mode ~shards:2 () in
    let target =
      Kernel.create_eject (Cluster.kernel c 1) ~type_name:"boom" (fun _ ~passive:_ ->
          [ ("Ping", fun _ -> failwith "boom") ])
    in
    let p = Cluster.proxy c ~shard:0 ~ops:[ "Ping" ] ~target:(1, target) in
    Cluster.driver c 0 (fun ctx -> ignore (Kernel.invoke ctx p ~op:"Ping" Value.Unit));
    match Cluster.run c with
    | () -> Alcotest.fail "a leaf fiber failed and the run returned normally"
    | exception Failure m -> m
  in
  let det = run Cluster.Deterministic in
  check Alcotest.bool ("oracle names the failure: " ^ det) true (contains det "boom");
  let m = run (wire Transport.Unix_socket) in
  check Alcotest.bool ("wire names the shard: " ^ m) true (contains m "leaf 1");
  check Alcotest.bool ("wire names the fiber failure: " ^ m) true
    (contains m "died" && contains m "Failure(\"boom\")")

let open_fds () = Array.length (Sys.readdir "/proc/self/fd")

(* A leaf that dies mid-run: the run fails naming it, and the hub
   closes every socket and reaps every leaf on the way out. *)
let test_dead_leaf_cleanup () =
  let run () =
    let c = Cluster.create (wire Transport.Unix_socket) ~shards:3 () in
    let k2 = Cluster.kernel c 2 in
    let dies =
      Kernel.create_eject k2 ~type_name:"dies" (fun _ ~passive:_ ->
          [ ("Ping", fun _ -> Unix._exit 3) ])
    in
    (* A proxy between the leaves gives them a link to close too. *)
    ignore (Cluster.proxy c ~shard:1 ~ops:[ "Ping" ] ~target:(2, dies));
    let p = Cluster.proxy c ~shard:0 ~ops:[ "Ping" ] ~target:(2, dies) in
    Cluster.driver c 0 (fun ctx -> ignore (Kernel.invoke ctx p ~op:"Ping" Value.Unit));
    match Cluster.run c with
    | () -> Alcotest.fail "a leaf died and the run returned normally"
    | exception Failure m -> m
  in
  let before = open_fds () in
  for _ = 1 to 2 do
    let m = run () in
    check Alcotest.bool ("the failure names the dead leaf: " ^ m) true
      (contains m "leaf 2" && contains m "exited 3")
  done;
  check Alcotest.int "the hub's descriptors are back where they were" before (open_fds ());
  match Unix.waitpid [ Unix.WNOHANG ] (-1) with
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  | pid, _ -> Alcotest.failf "child %d was left behind" pid

(* The socket inodes this process holds. *)
let socket_inodes () =
  List.filter_map
    (fun fd ->
      match Unix.readlink ("/proc/self/fd/" ^ fd) with
      | l when String.starts_with ~prefix:"socket:[" l ->
          Some (String.sub l 8 (String.length l - 9))
      | _ | (exception Unix.Unix_error _) -> None)
    (Array.to_list (Sys.readdir "/proc/self/fd"))

(* The whitespace-separated fields of each row of a /proc/net table; a
   table this kernel does not have is empty. *)
let proc_rows path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> []
  | text -> (
      match String.split_on_char '\n' text with
      | [] -> []
      | _header :: rows ->
          List.filter_map
            (fun r ->
              match List.filter (( <> ) "") (String.split_on_char ' ' r) with
              | [] -> None
              | fields -> Some fields)
            rows)

(* Every Unix and TCP socket of the host as (inode, listening): a Unix
   socket listens when its flags are __SO_ACCEPTCON (00010000), a TCP
   socket when its state is TCP_LISTEN (0A). *)
let sockets_by_inode () =
  List.filter_map
    (function
      | _ :: _ :: _ :: flags :: _ :: _ :: inode :: _ -> Some (inode, flags = "00010000")
      | _ -> None)
    (proc_rows "/proc/net/unix")
  @ List.concat_map
      (fun path ->
        List.filter_map
          (function
            | _ :: _ :: _ :: st :: _ :: _ :: _ :: _ :: _ :: inode :: _ -> Some (inode, st = "0A")
            | _ -> None)
          (proc_rows path))
      [ "/proc/net/tcp"; "/proc/net/tcp6" ]

(* Mid-run, after a round trip through a leaf and over a link, the hub
   holds a socket to each leaf and not one listening socket. *)
let test_wire_no_listener () =
  List.iter
    (fun (name, mode) ->
      let c = Cluster.create mode ~shards:3 () in
      let echo =
        Kernel.create_eject (Cluster.kernel c 2) ~type_name:"echo" (fun _ ~passive:_ ->
            [ ("Echo", fun v -> v) ])
      in
      let to_echo = Cluster.proxy c ~shard:1 ~ops:[ "Echo" ] ~target:(2, echo) in
      let relay =
        Kernel.create_eject (Cluster.kernel c 1) ~type_name:"relay" (fun ctx ~passive:_ ->
            [
              ( "Relay",
                fun v ->
                  match Kernel.invoke ctx to_echo ~op:"Echo" v with
                  | Ok r -> r
                  | Error e -> failwith e );
            ])
      in
      let to_relay = Cluster.proxy c ~shard:0 ~ops:[ "Relay" ] ~target:(1, relay) in
      let seen = ref None in
      Cluster.driver c 0 (fun ctx ->
          (match Kernel.invoke ctx to_relay ~op:"Relay" (Value.Int 7) with
          | Ok (Value.Int 7) -> ()
          | _ -> failwith "the round trip failed");
          let table = sockets_by_inode () in
          seen := Some (List.filter_map (fun i -> List.assoc_opt i table) (socket_inodes ())));
      Cluster.run c;
      match !seen with
      | None -> Alcotest.failf "%s: the hub driver did not run" name
      | Some listening ->
          check Alcotest.bool (name ^ ": the hub's sockets to both leaves are found") true
            (List.length listening >= 2);
          check Alcotest.int (name ^ ": sockets listening") 0
            (List.length (List.filter Fun.id listening)))
    transports

(* The hub asks shard 1's relay, which asks shard 2's echo [k] times
   per request over the leaves' own link.  Only the [m] frames the hub
   sends pass its fault injector: one Slow event each. *)
let test_faults_hub_egress_only () =
  let m = 5 and k = 3 and spare = 4 in
  let run mode =
    let c = Cluster.create mode ~shards:3 () in
    let echo =
      Kernel.create_eject (Cluster.kernel c 2) ~type_name:"echo" (fun _ ~passive:_ ->
          [ ("Echo", fun v -> Value.Str (String.uppercase_ascii (Value.to_str v))) ])
    in
    let to_echo = Cluster.proxy c ~shard:1 ~ops:[ "Echo" ] ~target:(2, echo) in
    let relay =
      Kernel.create_eject (Cluster.kernel c 1) ~type_name:"relay" (fun ctx ~passive:_ ->
          [
            ( "Relay",
              fun v ->
                Value.List
                  (List.init k (fun _ ->
                       match Kernel.invoke ctx to_echo ~op:"Echo" v with
                       | Ok r -> r
                       | Error e -> failwith e)) );
          ])
    in
    let to_relay = Cluster.proxy c ~shard:0 ~ops:[ "Relay" ] ~target:(1, relay) in
    let got = ref [] in
    Cluster.driver c 0 (fun ctx ->
        for i = 1 to m do
          let item = Value.Str (Printf.sprintf "item %d" i) in
          match Kernel.invoke ctx to_relay ~op:"Relay" item with
          | Ok v -> got := Value.to_string v :: !got
          | Error e -> failwith e
        done);
    Cluster.run c;
    (List.rev !got, Cluster.cross_messages c)
  in
  let oracle, cross = run Cluster.Deterministic in
  check Alcotest.int "oracle: every request answered" m (List.length oracle);
  check Alcotest.int "oracle: hub and link frames" ((2 * m) + (2 * m * k)) cross;
  let faults = Faults.of_script (List.init (m + spare) (fun _ -> Faults.Slow 0.001)) in
  let got, wcross =
    run
      (Cluster.Wire
         {
           Cluster.wire_transport = Transport.Unix_socket;
           wire_faults = Some faults;
           wire_auth = None;
         })
  in
  check Alcotest.(list string) "delays keep the stream intact" oracle got;
  check Alcotest.int "cross messages" cross wcross;
  check Alcotest.int "one script event per frame the hub sent, none for link frames" spare
    (Faults.remaining faults);
  check Alcotest.int "every offered frame delivered" m (Faults.meter faults).Net.delivered

(* The hub counts a data frame as sent before its fault injector sees
   it: a 2-shard run whose one Request the script loses still
   terminates, with that frame counted once and charged to loss. *)
let test_faults_dropped_frame_counts () =
  let faults = Faults.of_script [ Faults.Lose ] in
  let c =
    Cluster.create
      (Cluster.Wire
         {
           Cluster.wire_transport = Transport.Unix_socket;
           wire_faults = Some faults;
           wire_auth = None;
         })
      ~shards:2 ()
  in
  let echo =
    Kernel.create_eject (Cluster.kernel c 1) ~type_name:"echo" (fun _ ~passive:_ ->
        [ ("Echo", fun v -> v) ])
  in
  let to_echo = Cluster.proxy c ~shard:0 ~ops:[ "Echo" ] ~target:(1, echo) in
  Cluster.driver c 0 (fun ctx -> ignore (Kernel.invoke ctx to_echo ~op:"Echo" (Value.Int 1)));
  Cluster.run c;
  check Alcotest.int "the lost Request crossed once" 1 (Cluster.cross_messages c);
  check Alcotest.int "charged to loss" 1 (Faults.meter faults).Net.dropped_loss

(* Every leaf-to-leaf link of a 5-shard run has its own token: a frame
   sealed on one link fails the MAC on every other link and on every
   hub socket. *)
let test_link_tokens_distinct () =
  let c = community () and nonce = 0x1234L in
  let leaves = [ 1; 2; 3; 4 ] in
  let links =
    List.concat_map
      (fun a -> List.filter_map (fun b -> if a < b then Some (a, b) else None) leaves)
      leaves
  in
  let sockets =
    List.map (fun (a, b) -> (Printf.sprintf "link %d-%d" a b, Auth.link_token c ~nonce a b)) links
    @ List.map (fun i -> (Printf.sprintf "hub-%d" i, Auth.mint_token c ~shard:i ~nonce)) leaves
  in
  check Alcotest.int "every token distinct" (List.length sockets)
    (List.length (List.sort_uniq compare (List.map snd sockets)));
  check Alcotest.int64 "a link's token does not depend on the order of its ends"
    (Auth.link_token c ~nonce 1 2) (Auth.link_token c ~nonce 2 1);
  let frame = Frame.make ~kind:Frame.Request ~src:1 ~dst:2 ~seq:7 (Bin.encode (Value.Str "x")) in
  let token = Auth.link_token c ~nonce 1 2 in
  let sealed = Auth.seal (Auth.session c ~token) frame in
  check Alcotest.bool "opens on its own link" true
    (Auth.open_ (Auth.session c ~token) sealed = frame);
  List.iter
    (fun (name, tok) ->
      if not (Int64.equal tok token) then
        protocol_error ("refused on " ^ name) (fun () ->
            Auth.open_ (Auth.session c ~token:tok) sealed))
    sockets

(* --- Termination on the wire -------------------------------------------- *)

(* The F2 read-only chain over [lines] lines, one line per Transfer: a
   lazy source on shard 1, trim/upcase/rot13 on shards 2, 1 and 2, and a
   pumping sink on the hub, so every hop crosses a socket.  Returns the
   lines the sink read and the cluster. *)
let f2_lines mode ~lines =
  let module T = Eden_transput in
  let module Cat = Eden_filters.Catalog in
  let legacy = Eden_flowctl.Flowctl.legacy in
  let c = Cluster.create mode ~shards:3 () in
  let next = ref 0 in
  let src =
    T.Stage.source_ro (Cluster.kernel c 1) ~name:"source" ~capacity:0 (fun () ->
        if !next >= lines then None
        else begin
          incr next;
          Some (Value.Str (Printf.sprintf "Line %04d of the Stream \t " !next))
        end)
  in
  let _, last =
    List.fold_left
      (fun (shard, prev) (name, f) ->
        let upstream = Cluster.proxy c ~shard ~ops:[ T.Proto.transfer_op ] ~target:prev in
        let uid =
          T.Stage.filter_ro (Cluster.kernel c shard) ~name ~capacity:0 ~flowctl:legacy ~upstream f
        in
        (3 - shard, (shard, uid)))
      (2, (1, src))
      [ ("trim", Cat.trim_trailing); ("upcase", Cat.upcase); ("rot13", Cat.rot13) ]
  in
  let k0 = Cluster.kernel c 0 in
  let out = ref [] in
  let sink =
    T.Stage.sink_ro k0 ~name:"sink" ~flowctl:legacy
      ~upstream:(Cluster.proxy c ~shard:0 ~ops:[ T.Proto.transfer_op ] ~target:last)
      (fun v -> out := Value.to_str v :: !out)
  in
  Kernel.poke k0 sink;
  Cluster.run c;
  (List.rev !out, c)

(* Leaves report only when probed, and the hub probes only when it could
   be finished.  The F2 sink almost always has a Transfer outstanding,
   so termination costs a wave at the end of the run, not frames per
   line: the hub wakes about once per line, for its reply. *)
let test_wire_counters_f2 () =
  let lines = 2000 in
  let oracle, det = f2_lines Cluster.Deterministic ~lines in
  check Alcotest.int "oracle: every line" lines (List.length oracle);
  let none = Cluster.wire_counts det in
  check Alcotest.(list int) "in process: every counter 0" [ 0; 0; 0; 0 ]
    [ none.wakeups; none.reads; none.writes; none.idles ];
  let got, c = f2_lines (wire Transport.Unix_socket) ~lines in
  check Alcotest.(list string) "wire stream = oracle" oracle got;
  let all = Cluster.wire_counts c and hub = Cluster.wire_counts ~shard:0 c in
  let per_line n = float_of_int n /. float_of_int lines in
  let reports = all.idles - hub.idles in
  if per_line reports >= 0.01 then
    Alcotest.failf "%d leaf reports for %d lines (%.4f per line)" reports lines (per_line reports);
  if per_line hub.wakeups > 1.5 then
    Alcotest.failf "%d hub wake-ups for %d lines (%.2f per line)" hub.wakeups lines
      (per_line hub.wakeups);
  check Alcotest.bool "the hub reads at least once per reply" true (hub.reads >= lines);
  List.iter
    (fun i ->
      let l = Cluster.wire_counts ~shard:i c in
      check Alcotest.bool
        (Printf.sprintf "leaf %d's counts came with its Stats" i)
        true
        (l.wakeups > 0 && l.reads > 0 && l.writes > 0 && l.idles >= 1))
    [ 1; 2 ]

(* A wait-for cycle: the hub's driver calls shard 1's Serial Eject A,
   which calls shard 2's B, which calls back into A — busy with the
   first call, so that Request never runs.  Every process then idles
   with a Request of the hub's own outstanding; the hub probes after a
   silence, the wave balances, and the run ends with the driver
   unanswered. *)
let test_wire_wait_for_cycle () =
  let run mode =
    let c = Cluster.create mode ~shards:3 () in
    let call ctx uid op v =
      match Kernel.invoke ctx uid ~op v with Ok r -> r | Error e -> failwith e
    in
    let to_b = ref None in
    let a =
      Kernel.create_eject (Cluster.kernel c 1) ~dispatch:Kernel.Serial ~type_name:"A"
        (fun ctx ~passive:_ -> [ ("A", fun v -> call ctx (Option.get !to_b) "B" v) ])
    in
    let to_a = Cluster.proxy c ~shard:2 ~ops:[ "A" ] ~target:(1, a) in
    let b =
      Kernel.create_eject (Cluster.kernel c 2) ~type_name:"B" (fun ctx ~passive:_ ->
          [ ("B", fun v -> call ctx to_a "A" v) ])
    in
    to_b := Some (Cluster.proxy c ~shard:1 ~ops:[ "B" ] ~target:(2, b));
    let hub_to_a = Cluster.proxy c ~shard:0 ~ops:[ "A" ] ~target:(1, a) in
    let answered = ref false in
    Cluster.driver c 0 (fun ctx ->
        ignore (call ctx hub_to_a "A" Value.Unit);
        answered := true);
    let t0 = Unix.gettimeofday () in
    Cluster.run c;
    (!answered, Cluster.cross_messages c, Unix.gettimeofday () -. t0)
  in
  let answered, cross, _ = run Cluster.Deterministic in
  check Alcotest.bool "oracle: the driver is never answered" false answered;
  check Alcotest.int "oracle: three Requests, no Reply" 3 cross;
  List.iter
    (fun (name, mode) ->
      let answered, wcross, took = run mode in
      check Alcotest.bool (name ^ ": the driver is never answered") false answered;
      check Alcotest.int (name ^ ": cross messages") cross wcross;
      if took >= 5.0 then Alcotest.failf "%s: the cycle took %.1fs to end" name took)
    transports

(* Two leaves talk and the hub has nothing outstanding: it keeps
   probing while shard 1's driver makes its Echo calls to shard 2, and
   no wave may balance before the last reply. *)
let test_wire_leaf_exchange () =
  let calls = 300 in
  let run mode =
    let c = Cluster.create mode ~shards:3 () in
    let echo =
      Kernel.create_eject (Cluster.kernel c 2) ~type_name:"echo" (fun _ ~passive:_ ->
          [ ("Echo", fun v -> v) ])
    in
    let to_echo = Cluster.proxy c ~shard:1 ~ops:[ "Echo" ] ~target:(2, echo) in
    Cluster.driver c 1 (fun ctx ->
        for i = 1 to calls do
          match Kernel.invoke ctx to_echo ~op:"Echo" (Value.Int i) with
          | Ok (Value.Int j) when j = i -> ()
          | _ -> failwith (Printf.sprintf "echo %d came back wrong" i)
        done);
    Cluster.run c;
    (Cluster.cross_messages c, Cluster.op_counts c)
  in
  let cross, ops = run Cluster.Deterministic in
  check Alcotest.int "oracle: a Request and a Reply per call" (2 * calls) cross;
  List.iter
    (fun (name, mode) ->
      for r = 1 to 2 do
        let wcross, wops = run mode in
        let tag = Printf.sprintf "%s run %d" name r in
        check Alcotest.int (tag ^ ": cross messages") cross wcross;
        check Alcotest.(list (pair string int)) (tag ^ ": op counts") ops wops
      done)
    transports

let suite =
  [
    Alcotest.test_case "bin: trailing bytes rejected" `Quick test_bin_trailing_garbage;
    Alcotest.test_case "bin: hostile headers" `Quick test_bin_hostile_headers;
    Alcotest.test_case "bin: size law" `Quick test_bin_size_law;
    Alcotest.test_case "bin: a failed decode releases the chunks it decoded" `Quick
      test_bin_failed_decode_releases_chunks;
    prop_bin_roundtrip;
    prop_bin_prefix_rejected;
    Alcotest.test_case "frame: malformed inputs" `Quick test_frame_malformed;
    prop_frame_roundtrip;
    Alcotest.test_case "transport: pair ends connected both ways, close reads as EOF"
      `Quick test_transport_pair;
    Alcotest.test_case "conn: queued frames reach the socket byte-identical" `Quick
      test_conn_bytes_identical;
    prop_conn_split_roundtrip;
    prop_conn_decode_in_place;
    Alcotest.test_case "conn: a failed MAC decodes nothing" `Quick
      test_conn_failed_mac_decodes_nothing;
    Alcotest.test_case "conn: hostile length, EOF at and inside a frame" `Quick
      test_conn_errors;
    Alcotest.test_case "conn: fill on a full buffer makes no read, frames intact" `Quick
      test_conn_fill_without_room;
    Alcotest.test_case "conn: N frames between two flushes cost one write" `Quick
      test_conn_one_write_per_flush;
    Alcotest.test_case "faults: loss, exhaustion and partition accounting" `Quick
      test_faults_accounting;
    Alcotest.test_case "faults: of_events folds loss+partition pairs" `Quick
      test_faults_of_events;
    Alcotest.test_case "codec.batch: adversarial frames" `Quick
      test_codec_batch_adversarial;
    prop_codec_batch_cut_mid_frame;
    Alcotest.test_case "stall report: transport-blocked stage exempted" `Quick
      test_stall_report_transport_exemption;
    Alcotest.test_case "multi-process equivalence: fanin over unix sockets and tcp"
      `Quick test_equivalence_fanin;
    Alcotest.test_case "multi-process equivalence: F2 pipeline" `Quick
      test_equivalence_f2;
    Alcotest.test_case "multi-process equivalence: F4 report topology" `Quick
      test_equivalence_f4;
    Alcotest.test_case "multi-leaf equivalence: F2 and fan-in at 4 and 5 shards" `Quick
      test_equivalence_multi_leaf;
    Alcotest.test_case "replay: simulated loss schedule reproduces on the wire"
      `Quick test_replay_reproduces_on_wire;
    Alcotest.test_case "wire cluster: injected delays keep streams intact" `Quick
      test_wire_cluster_with_faults;
    Alcotest.test_case "wire cluster: sent chunk handles are released" `Quick
      test_wire_releases_sent_chunks;
    Alcotest.test_case "conn: flush into a stalled reader returns with the rest pending"
      `Quick test_conn_flush_never_blocks;
    Alcotest.test_case "leaf fiber failure fails the wire run, naming shard and fiber"
      `Quick test_leaf_fiber_failure;
    Alcotest.test_case "dead leaf cleanup: the run names the shard, closes every socket"
      `Quick test_dead_leaf_cleanup;
    Alcotest.test_case "faults: only frames the hub sends consume the script" `Quick
      test_faults_hub_egress_only;
    Alcotest.test_case "faults: a frame the hub drops still counts as sent" `Quick
      test_faults_dropped_frame_counts;
    Alcotest.test_case "link tokens: a frame sealed for one link is refused on the others"
      `Quick test_link_tokens_distinct;
    Alcotest.test_case "wire run: no process listens" `Quick test_wire_no_listener;
    Alcotest.test_case "wire counters: no Idle per F2 line, a hub wake-up per reply" `Quick
      test_wire_counters_f2;
    Alcotest.test_case "a wait-for cycle between two leaves ends" `Quick
      test_wire_wait_for_cycle;
    Alcotest.test_case
      "an exchange between two leaves that the hub takes no part in runs to completion" `Quick
      test_wire_leaf_exchange;
  ]
