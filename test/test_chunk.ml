(* The zero-copy chunk type and its plumbing: lifecycle faults, the
   QCheck ownership fuzzer, hostile chunk decoding, the gather-write
   framing, byte-metered flows, refcount balance through a resil sink
   crash/replay, and the chunked line filters against their boxed
   twins. *)

open Eden_kernel
module Chunk = Eden_chunk.Chunk
module Bin = Eden_wire.Bin
module Frame = Eden_wire.Frame
module Conn = Eden_wire.Conn
module Obs = Eden_obs.Obs
module Flowctl = Eden_flowctl.Flowctl
module Stage = Eden_transput.Stage
module Retry = Eden_resil.Retry
module Backoff = Eden_resil.Backoff
module Resumable = Eden_transput.Resumable
module Supervisor = Eden_resil.Supervisor
module Pipeline = Eden_transput.Pipeline
module Cat = Eden_filters.Catalog
module Chunkline = Eden_filters.Chunkline
module Line = Eden_filters.Line
module Sed = Eden_filters.Sed

let check = Alcotest.check

let prop name ?(count = 100) gen f =
  Seed.to_alcotest (QCheck2.Test.make ~name ~count gen f)

let gauges () = (Chunk.live_roots (), Chunk.live_bytes (), Chunk.live_views ())

let check_fault name fault f =
  match f () with
  | _ -> Alcotest.failf "%s: expected %s fault" name (Chunk.fault_name fault)
  | exception Chunk.Fault (got, _) ->
      check Alcotest.string name (Chunk.fault_name fault) (Chunk.fault_name got)

(* --- lifecycle ------------------------------------------------------ *)

let test_basics () =
  let c = Chunk.of_string "hello world" in
  check Alcotest.int "length" 11 (Chunk.length c);
  check Alcotest.string "to_string" "hello world" (Chunk.to_string c);
  check Alcotest.char "get" 'w' (Chunk.get c 6);
  check Alcotest.(option int) "index_from" (Some 5) (Chunk.index_from c 0 ' ');
  let z = Chunk.alloc 4 in
  check Alcotest.string "alloc zero-filled" "\000\000\000\000" (Chunk.to_string z);
  let s = Chunk.of_substring "abcdef" ~pos:2 ~len:3 in
  check Alcotest.string "of_substring" "cde" (Chunk.to_string s);
  let e = Chunk.empty () in
  check Alcotest.int "empty" 0 (Chunk.length e);
  List.iter Chunk.release [ c; z; s; e ]

let test_zero_copy () =
  let roots0 = Chunk.live_roots () in
  let c = Chunk.of_string "hello world" in
  check Alcotest.int "one root" (roots0 + 1) (Chunk.live_roots ());
  (* sub/split/concat never copy: no new roots, only views. *)
  let w = Chunk.sub c ~pos:6 ~len:5 in
  check Alcotest.string "sub" "world" (Chunk.to_string w);
  let a, b = Chunk.split c 5 in
  check Alcotest.string "split left" "hello" (Chunk.to_string a);
  check Alcotest.string "split right" " world" (Chunk.to_string b);
  let j = Chunk.concat [ a; w ] in
  check Alcotest.string "concat" "helloworld" (Chunk.to_string j);
  check Alcotest.int "concat chains segments" 2 (Chunk.segments j);
  check Alcotest.int "still one root" (roots0 + 1) (Chunk.live_roots ());
  let flat = Chunk.of_string "helloworld" in
  check Alcotest.bool "equal across shapes" true (Chunk.equal j flat);
  List.iter Chunk.release [ c; w; a; b; j; flat ]

let test_equal_segmented () =
  let l = Chunk.of_string "abc" and r = Chunk.of_string "def" in
  let j = Chunk.concat [ l; r ] in
  let flat = Chunk.of_string "abcdef" in
  check Alcotest.bool "equal segmented vs flat" true (Chunk.equal j flat);
  let head = Chunk.sub flat ~pos:0 ~len:5 in
  check Alcotest.bool "not equal" false (Chunk.equal j head);
  List.iter Chunk.release [ l; r; j; flat; head ]

let test_faults () =
  let c = Chunk.of_string "doomed" in
  Chunk.release c;
  check_fault "double release" Chunk.Double_release (fun () -> Chunk.release c);
  check_fault "use after free" Chunk.Use_after_free (fun () -> Chunk.to_string c);
  check_fault "sub after free" Chunk.Use_after_free (fun () -> Chunk.sub c ~pos:0 ~len:1);
  (* preview must stay safe on a released handle — it feeds error
     messages and observability. *)
  let p = Chunk.preview c in
  check Alcotest.bool "preview safe when released" true
    (String.length p > 0 && String.length p < 64);
  let contains_sub s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  check Alcotest.bool "preview names released" true (contains_sub p "released")

let test_gauge_balance () =
  let base = gauges () in
  let c = Chunk.of_string "0123456789" in
  let a, b = Chunk.split c 4 in
  let j = Chunk.concat [ b; a ] in
  let s = Chunk.sub j ~pos:2 ~len:6 in
  check Alcotest.bool "gauges rose" true (gauges () <> base);
  List.iter Chunk.release [ c; a; b; j; s ];
  check
    Alcotest.(triple int int int)
    "gauges balance to baseline" base (gauges ())

(* A zero-length chunk has no segment for a release to return, so no
   path may give it a root. *)
let test_zero_length_rootless () =
  let base = gauges () in
  let e = Chunk.empty () in
  let enc = Bin.encode (Value.Chunk e) in
  Chunk.release e;
  List.iter
    (fun (what, make) ->
      let c = make () in
      check Alcotest.int (what ^ ": length") 0 (Chunk.length c);
      Chunk.release c;
      check Alcotest.(triple int int int) (what ^ ": gauges at baseline") base (gauges ()))
    [
      ("of_string \"\"", fun () -> Chunk.of_string "");
      ("of_substring ~len:0", fun () -> Chunk.of_substring "abc" ~pos:1 ~len:0);
      ("alloc 0", fun () -> Chunk.alloc 0);
      ( "Bin.decode",
        fun () ->
          match Bin.decode enc with
          | Value.Chunk c -> c
          | v -> Alcotest.failf "decoded %s" (Value.preview v) );
    ]

(* --- QCheck lifecycle fuzzer ---------------------------------------- *)

(* Random sub/split/concat/release sequences over a tracked pool of
   handles, plus deliberate double-releases and use-after-free pokes.
   The typed faults must fire exactly on the poisoned actions, and the
   gauges must return to baseline once every live handle is released. *)
let prop_lifecycle =
  prop "chunk lifecycle fuzzer: faults typed, gauges balance" ~count:200
    QCheck2.Gen.(list_size (int_range 1 60) (pair (int_bound 7) (int_bound 1000)))
    (fun ops ->
      let base = gauges () in
      let alive = ref [] in
      let dead = ref [] in
      let fresh_id = ref 0 in
      let pick xs r = List.nth xs (r mod List.length xs) in
      let ok = ref true in
      List.iter
        (fun (op, r) ->
          match op with
          | 0 | 1 ->
              incr fresh_id;
              alive := Chunk.of_string (Printf.sprintf "item-%04d-%d" !fresh_id r) :: !alive
          | 2 when !alive <> [] ->
              let c = pick !alive r in
              let len = Chunk.length c in
              if len > 0 then
                alive := Chunk.sub c ~pos:(r mod len) ~len:(1 + (r mod (len - (r mod len)))) :: !alive
          | 3 when !alive <> [] ->
              let c = pick !alive r in
              let a, b = Chunk.split c (r mod (Chunk.length c + 1)) in
              alive := a :: b :: !alive
          | 4 when !alive <> [] ->
              let a = pick !alive r and b = pick !alive (r / 7) in
              alive := Chunk.concat [ a; b ] :: !alive
          | 5 when !alive <> [] ->
              let c = pick !alive r in
              Chunk.release c;
              alive := List.filter (fun x -> x != c) !alive;
              dead := c :: !dead
          | 6 when !dead <> [] ->
              (* Double release must raise the typed fault, every time. *)
              let c = pick !dead r in
              (match Chunk.release c with
              | () -> ok := false
              | exception Chunk.Fault (Chunk.Double_release, _) -> ()
              | exception _ -> ok := false)
          | 7 when !dead <> [] ->
              (* Use-after-free likewise. *)
              let c = pick !dead r in
              (match Chunk.to_string c with
              | _ -> ok := false
              | exception Chunk.Fault (Chunk.Use_after_free, _) -> ()
              | exception _ -> ok := false)
          | _ -> ())
        ops;
      (* Exercise reads on the survivors, then drain the pool. *)
      List.iter (fun c -> ignore (Chunk.to_string c)) !alive;
      List.iter Chunk.release !alive;
      !ok && gauges () = base)

(* --- hostile decoding ----------------------------------------------- *)

let test_bin_roundtrip () =
  let base = gauges () in
  let c1 = Chunk.of_string "payload one" in
  let seg = Chunk.of_string "seg-a|" in
  let c2 = Chunk.concat [ seg ] in
  Chunk.release seg;
  let v =
    Value.List
      [ Value.Str "hdr"; Value.Chunk c1; Value.List [ Value.Chunk c2; Value.Int 7 ] ]
  in
  let enc = Bin.encode v in
  let back = Bin.decode enc in
  check Alcotest.bool "chunk value roundtrips" true (Value.equal v back);
  (* Size law: a chunk frames exactly like a string of the same bytes. *)
  let lone = Bin.encode (Value.Chunk c1) in
  check Alcotest.int "1 + 4 + len" (1 + 4 + Chunk.length c1) (String.length lone);
  (* Release both the originals and the decoded copies: balance. *)
  let rec dispose = function
    | Value.Chunk c -> Chunk.release c
    | Value.List vs -> List.iter dispose vs
    | _ -> ()
  in
  dispose v;
  dispose back;
  check Alcotest.(triple int int int) "balanced" base (gauges ())

let test_bin_hostile_chunk () =
  let reject name s =
    match Bin.decode s with
    | v -> Alcotest.failf "%s: decoded %s" name (Value.preview v)
    | exception Value.Protocol_error _ -> ()
  in
  (* Length overrunning the buffer must be rejected before allocation. *)
  reject "oversized length" "\x07\xff\xff\xff\x7fAB";
  reject "length past end" "\x07\x00\x00\x00\x09short";
  reject "truncated header" "\x07\x00\x00";
  (* 2^31-1-ish lengths encoded in the unsigned field: still bounded by
     the remaining-bytes check, no allocation attempt. *)
  reject "huge unsigned length" "\x07\xff\xff\xff\xff";
  (* Truncating a valid encoding anywhere inside the payload fails. *)
  let c = Chunk.of_string "0123456789" in
  let enc = Bin.encode (Value.Chunk c) in
  Chunk.release c;
  reject "truncated payload" (String.sub enc 0 (String.length enc - 3));
  (* Depth cap applies around chunks too: wrap one chunk in more list
     headers than the decoder allows. *)
  let depth = 210 in
  let b = Buffer.create 1024 in
  for _ = 1 to depth do
    Buffer.add_string b "\x06\x00\x00\x00\x01"
  done;
  Buffer.add_string b "\x07\x00\x00\x00\x01x";
  reject "depth cap" (Buffer.contents b)

let test_value_preview_bounded () =
  let c = Chunk.of_string (String.make 100_000 'x') in
  let p = Value.preview (Value.Chunk c) in
  check Alcotest.bool "preview bounded" true (String.length p < 256);
  Chunk.release c

(* --- gather framing -------------------------------------------------- *)

let flatten_parts ps =
  String.concat ""
    (List.map (function Bin.Flat s -> s | Bin.Payload c -> Chunk.to_string c) ps)

let test_parts_law () =
  let c1 = Chunk.of_string "alpha" and c2 = Chunk.of_string "beta" in
  let vals =
    [
      Value.Unit;
      Value.Str "plain";
      Value.Chunk c1;
      Value.List [ Value.Int 3; Value.Chunk c2; Value.Str "tail" ];
      Value.List [ Value.List [ Value.Chunk c1 ] ];
    ]
  in
  List.iter
    (fun v ->
      let ps = Bin.parts v in
      check Alcotest.string "parts flatten to encode" (Bin.encode v) (flatten_parts ps);
      check Alcotest.int "parts_length law" (String.length (Bin.encode v))
        (Bin.parts_length ps))
    vals;
  (* The chunk payloads must ride as references, not copies. *)
  let ps = Bin.parts (Value.List [ Value.Chunk c1; Value.Chunk c2 ]) in
  let payloads = List.filter (function Bin.Payload _ -> true | _ -> false) ps in
  check Alcotest.int "chunks stay as payload refs" 2 (List.length payloads);
  List.iter Chunk.release [ c1; c2 ]

let test_send_value_wire_identical () =
  let c = Chunk.of_string (String.concat "\n" (List.init 40 (Printf.sprintf "line %d"))) in
  let v = Value.List [ Value.Str "envelope"; Value.Chunk c ] in
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let conn = Conn.create a in
  Conn.send_value conn ~kind:Frame.Request ~src:3 ~dst:5 ~seq:42 v;
  let queued = Conn.pending conn in
  Conn.flush conn;
  let got = Bytes.create queued in
  let rec fill pos = if pos < queued then fill (pos + Unix.read b got pos (queued - pos)) in
  fill 0;
  Unix.close a;
  Unix.close b;
  let flat = Frame.encode (Frame.make ~kind:Frame.Request ~src:3 ~dst:5 ~seq:42 (Bin.encode v)) in
  check Alcotest.string "bytes on the socket = Frame.encode" flat (Bytes.to_string got);
  check Alcotest.bool "chunk still owned by the caller" false (Chunk.is_released c);
  Chunk.release c

(* --- flow meters ------------------------------------------------------ *)

let test_flow_meter_bytes () =
  (* Byte meters charge Value.size per item: a chunk counts its whole
     payload plus the 4-byte framing, same as a string. *)
  let items = [ Value.Str "abcd"; Value.chunk (Chunk.of_string "0123456789"); Value.Str "" ] in
  let expect = List.fold_left (fun a v -> a + Value.size v) 0 items in
  check Alcotest.int "size law str" (4 + 4) (Value.size (List.nth items 0));
  check Alcotest.int "size law chunk" (4 + 10) (Value.size (List.nth items 1));
  let k = Kernel.create () in
  let obs = Kernel.obs k in
  let src_flow = Obs.register_stage obs "m.source" in
  let sink_flow = Obs.register_stage obs "m.sink" in
  let rest = ref items in
  let gen () =
    match !rest with
    | [] -> None
    | v :: tl ->
        rest := tl;
        Some v
  in
  let src = Stage.source_ro k ~name:"m.source" ~flow:src_flow gen in
  let got = ref [] in
  let sink =
    Stage.sink_ro k ~name:"m.sink" ~flow:sink_flow ~upstream:src (fun v -> got := v :: !got)
  in
  Kernel.poke k sink;
  Kernel.run k;
  check Alcotest.int "sink items" 3 (List.length !got);
  check Alcotest.int "sink bytes_in = sum of sizes" expect sink_flow.Obs.Flow.bytes_in;
  check Alcotest.int "source bytes_out = sum of sizes" expect src_flow.Obs.Flow.bytes_out;
  check Alcotest.int "source bytes_in zero" 0 src_flow.Obs.Flow.bytes_in;
  List.iter (function Value.Chunk c -> Chunk.release c | _ -> ()) !got

let test_net_size_histogram_counts_chunks () =
  (* Chunk payloads land in the net.size histogram via Value.size — a
     1 KiB chunk moving across the simulated net must register at least
     its own bytes. *)
  let k = Kernel.create () in
  let payload = String.make 1024 'z' in
  let rest = ref [ Value.chunk (Chunk.of_string payload) ] in
  let gen () =
    match !rest with
    | [] -> None
    | v :: tl ->
        rest := tl;
        Some v
  in
  let src = Stage.source_ro k ~name:"h.source" gen in
  let sink =
    Stage.sink_ro k ~name:"h.sink" ~upstream:src (function
      | Value.Chunk c -> Chunk.release c
      | _ -> ())
  in
  Kernel.poke k sink;
  Kernel.run k;
  let m = Kernel.Meter.snapshot k in
  check Alcotest.bool "net bytes cover the chunk" true
    (m.Kernel.Meter.net.Eden_net.Net.bytes >= 1024)

(* --- flowctl config --------------------------------------------------- *)

let test_flowctl_chunked () =
  let f = Flowctl.chunked () in
  check Alcotest.bool "is_chunked" true (Flowctl.is_chunked f);
  check Alcotest.bool "never legacy" false (Flowctl.is_legacy f);
  check Alcotest.(option int) "chunk_bytes" (Some Flowctl.default_chunk_bytes)
    (Flowctl.chunk_bytes f);
  check Alcotest.int "initial batch 1" 1 (Flowctl.initial_batch f);
  let g = Flowctl.chunked ~chunk_bytes:512 () in
  check Alcotest.(option int) "custom bytes" (Some 512) (Flowctl.chunk_bytes g);
  check Alcotest.bool "boxed configs report no chunk_bytes" true
    (Flowctl.chunk_bytes (Flowctl.fixed 4) = None);
  match Flowctl.chunked ~chunk_bytes:0 () with
  | _ -> Alcotest.fail "chunk_bytes 0 accepted"
  | exception Invalid_argument _ -> ()

(* --- resil replay balance --------------------------------------------- *)

(* A chunked read-only resumable pipeline whose sink crashes mid-stream
   and replays from its checkpoint.  Replayed deliveries re-serve the
   same handles, the restarted fold discards none silently: after
   releasing the output exactly once, every refcount balances. *)
let test_resil_replay_balance () =
  let base = gauges () in
  let n = 24 in
  let line i = Printf.sprintf "resil-line-%03d  Quick brown  " i in
  let gen i = if i >= n then None else Some (Value.chunk (Chunk.of_string (line i))) in
  let upchunk v =
    match v with
    | Value.Chunk c ->
        let s = String.uppercase_ascii (Chunk.to_string c) in
        Chunk.release c;
        Value.chunk (Chunk.of_string s)
    | v -> v
  in
  let k = Kernel.create ~seed:5L ~nodes:[ "a"; "b"; "c" ] () in
  let policy =
    Retry.policy ~timeout:50.0 ~max_attempts:10 ~backoff:(Backoff.make ~base:1.0 ~cap:10.0 ()) ()
  in
  let p =
    Pipeline.resumable k ~nodes:(Kernel.nodes k) ~batch:2 ~policy ~seed:99L Pipeline.Read_only
      ~gen ~filters:[ Resumable.pure_map upchunk ]
  in
  let sup = Supervisor.create k ~policy:(Supervisor.policy ~interval:4.0 ()) () in
  Pipeline.supervise p sup;
  Supervisor.start sup;
  Pipeline.crash_at p p.Pipeline.sink 6.0;
  let completed = ref false in
  Kernel.run_driver k (fun _ctx ->
      Pipeline.start p;
      completed := Pipeline.await_timeout p ~deadline:5000.0;
      Supervisor.stop sup);
  check Alcotest.bool "completes through the crash" true !completed;
  (match Pipeline.output p with
  | None -> Alcotest.fail "no output"
  | Some vs ->
      let texts =
        List.map
          (function
            | Value.Chunk c ->
                let s = Chunk.to_string c in
                Chunk.release c;
                s
            | v -> Value.to_str v)
          vs
      in
      let expected = List.init n (fun i -> String.uppercase_ascii (line i)) in
      check Alcotest.(list string) "byte-identical stream after replay" expected texts;
      check Alcotest.int "chunks stayed chunks" n
        (List.length (List.filter (function Value.Chunk _ -> true | _ -> false) vs)));
  check Alcotest.(triple int int int) "refcounts balance through replay" base (gauges ())

(* --- chunked line filters ------------------------------------------- *)

(* Cuts [doc] into chunk items: each [r] takes the next [r mod 48]
   bytes (possibly none) as a one-segment chunk or, when [r / 48] is
   odd, as a two-segment [Chunk.concat]; when [r / 96] is odd an
   [of_string ""] chunk goes first.  The bytes the list leaves over
   make one more chunk. *)
let cut_items doc rs =
  let n = String.length doc in
  let piece pos len r =
    let c =
      if r / 48 mod 2 = 0 then Chunk.of_substring doc ~pos ~len
      else begin
        let h = len / 2 in
        let a = Chunk.of_substring doc ~pos ~len:h in
        let b = Chunk.of_substring doc ~pos:(pos + h) ~len:(len - h) in
        let c = Chunk.concat [ a; b ] in
        Chunk.release a;
        Chunk.release b;
        c
      end
    in
    if r / 96 mod 2 = 0 then [ Value.Chunk c ]
    else [ Value.Chunk (Chunk.of_string ""); Value.Chunk c ]
  in
  let rec go pos = function
    | [] -> if pos < n then piece pos (n - pos) 0 else []
    | r :: rest ->
        let len = min (r mod 48) (n - pos) in
        piece pos len r @ go (pos + len) rest
  in
  go 0 rs

(* Runs a chunk-plane transform over [items]: its output chunks as
   strings, each released once read; items it left unread (after
   sed's q) are released too. *)
let run_chunked f items =
  let rest = ref items in
  let next () =
    match !rest with
    | [] -> None
    | v :: tl ->
        rest := tl;
        Some v
  in
  let out = ref [] in
  f next (function
    | Value.Chunk c ->
        out := Chunk.to_string c :: !out;
        Chunk.release c
    | v -> Alcotest.failf "chunk filter emitted %s" (Value.preview v));
  List.iter (function Value.Chunk c -> Chunk.release c | _ -> ()) !rest;
  List.rev !out

(* The boxed line stream a document carries: a non-terminated tail is
   a line, a final newline ends the last one. *)
let lines_of doc =
  if doc = "" then []
  else
    let ls = String.split_on_char '\n' doc in
    if doc.[String.length doc - 1] = '\n' then List.filteri (fun i _ -> i < List.length ls - 1) ls
    else ls

let terminated lines = String.concat "" (List.map (fun l -> l ^ "\n") lines)

(* A stateful line filter with end-of-stream output, run through both
   engines: every other line as it comes, then the last two lines and
   the line count at end of stream. *)
let alternate_then_tail ~stateful =
  stateful ~init:(0, [])
    ~step:(fun (n, kept) line ->
      let kept = match kept with last :: _ -> [ line; last ] | [] -> [ line ] in
      ((n + 1, kept), if n mod 2 = 0 then [ line ] else []))
    ~flush:(fun (n, kept) -> List.rev kept @ [ string_of_int n ])

let chunked_twins =
  [
    ("trim_trailing", Cat.chunked_trim_trailing, Cat.trim_trailing);
    ("upcase", Cat.chunked_upcase, Cat.upcase);
    ("downcase", Cat.chunked_downcase, Cat.downcase);
    ("rot13", Cat.chunked_rot13, Cat.rot13);
    ("grep", Cat.chunked_grep "a", Cat.grep "a");
    ("grep_v", Cat.chunked_grep_v "b", Cat.grep_v "b");
    ("number_lines", Cat.chunked_number_lines (), Cat.number_lines ());
    ( "stateful with flush",
      alternate_then_tail ~stateful:Chunkline.stateful,
      alternate_then_tail ~stateful:Line.stateful );
  ]

let sed_scripts =
  List.map
    (fun lines ->
      match Sed.parse_script lines with
      | Ok s -> (String.concat "; " lines, s)
      | Error e -> failwith e)
    [
      [ "s/a/<&>/g" ];
      [ "/b/d" ];
      [ "3q" ];
      [ "y/ab\t/BA_/" ];
      [ "2a\\after" ];
      [ "1i\\before"; "/^$/i\\blank" ];
      [ "2,4s/[ab]/#/g" ];
      [ "/a/,/b/d"; "6q" ];
      [ "/A/,3p"; "s/\r/R/g" ];
    ]

let doc_gen =
  QCheck2.Gen.(
    string_size ~gen:(oneofl [ 'a'; 'b'; 'A'; 'z'; ' '; '\t'; '\r'; '\000'; '\xff'; '\n'; '\n' ])
      (int_range 0 300))

(* Every chunked catalog filter and Chunkline.sed against its boxed
   twin, over random bytes cut at random places. *)
let prop_twins =
  prop "chunked filters = boxed twins over random cuts" ~count:300
    QCheck2.Gen.(triple doc_gen (list_size (int_range 0 24) (int_bound 191)) (int_bound 8))
    (fun (doc, rs, script) ->
      let base = gauges () in
      let lines = lines_of doc in
      let same what f expect =
        let got = String.concat "" (run_chunked f (cut_items doc rs)) in
        if got <> expect then
          QCheck2.Test.fail_reportf "%s: chunked %S, boxed %S" what got expect
      in
      List.iter
        (fun (what, chunked, boxed) -> same what chunked (terminated (Line.run boxed lines)))
        chunked_twins;
      let what, s = List.nth sed_scripts script in
      same ("sed " ^ what) (Chunkline.sed s) (terminated (Sed.run_lines s lines));
      gauges () = base)

(* The pins on the byte kernels under the four per-byte catalog
   filters:
   - output chunks, not just bytes, are [Chunkline.map]'s for the same
     line function, so Deposit counts cannot move;
   - a 64 KiB chunk costs at most 150 minor words end to end, input
     chunk included (the per-line path took about 71 600);
   - the kernel contracts, the protocol error and [Str] items as bytes
     of the stream. *)
let test_kernel_pins () =
  let base = gauges () in
  let line_fn boxed l = match Line.run boxed [ l ] with [ o ] -> o | _ -> assert false in
  let kernels =
    [
      ("trim_trailing", Cat.chunked_trim_trailing, Cat.trim_trailing);
      ("upcase", Cat.chunked_upcase, Cat.upcase);
      ("downcase", Cat.chunked_downcase, Cat.downcase);
      ("rot13", Cat.chunked_rot13, Cat.rot13);
    ]
  in
  let chunks = Alcotest.(list string) in
  let doc =
    String.concat ""
      (List.init 300 (fun i ->
           Printf.sprintf "%s Line %d\r \000\xff%s\t \n%s" (String.make (i mod 17) 'x') i
             (if i mod 5 = 0 then "   " else "")
             (if i mod 7 = 0 then "\n \t\n" else "")))
    ^ String.make 200 'Q' ^ " \t"
  in
  let cuttings =
    List.map (fun cut -> List.init ((String.length doc / cut) + 1) (fun _ -> cut)) [ 1; 7; 47 ]
    @ [ List.init 400 (fun i -> (i * 37) + (i / 3)); [] ]
  in
  List.iter
    (fun (what, kernel, boxed) ->
      List.iter
        (fun rs ->
          check chunks (what ^ ": chunks = Chunkline.map's")
            (run_chunked (Chunkline.map (line_fn boxed)) (cut_items doc rs))
            (run_chunked kernel (cut_items doc rs)))
        cuttings)
    kernels;
  (* Allocation: sixteen 64 KiB chunks of 33-byte lines. *)
  let cut = 65536 and n = 16 in
  let big = Buffer.create ((n + 1) * cut) in
  while Buffer.length big < n * cut do
    Buffer.add_string big
      (Printf.sprintf "Stream %06d of Eden chunks  \t \n" (Buffer.length big / 33))
  done;
  let big = Buffer.contents big in
  List.iter
    (fun (what, kernel, _) ->
      let pos = ref 0 in
      let next () =
        if !pos + cut > String.length big then None
        else begin
          let c = Chunk.of_substring big ~pos:!pos ~len:cut in
          pos := !pos + cut;
          Some (Value.Chunk c)
        end
      in
      let emit = function Value.Chunk c -> Chunk.release c | _ -> () in
      let w0 = Gc.minor_words () in
      kernel next emit;
      let words = (Gc.minor_words () -. w0) /. float_of_int n in
      if words > 150. then
        Alcotest.failf "%s: %.0f minor words per 64 KiB chunk, pinned at 150" what words)
    kernels;
  (* Contracts. *)
  let rejects what f =
    match f () with
    | _ -> Alcotest.failf "%s: accepted" what
    | exception Invalid_argument _ -> ()
  in
  rejects "tr moving '\\n'" (fun () -> Chunkline.tr (fun c -> if c = '\n' then ' ' else c));
  rejects "tr mapping onto '\\n'" (fun () -> Chunkline.tr (fun c -> if c = 'x' then '\n' else c));
  rejects "rstrip true on '\\n'" (fun () -> Chunkline.rstrip (fun c -> c = ' ' || c = '\n'));
  let mixed () =
    [ Value.Str "ab  "; Value.Chunk (Chunk.of_string "c\t\nd"); Value.Str ""; Value.Str "e \n f\t" ]
  in
  List.iter
    (fun (what, kernel, boxed) ->
      (match run_chunked kernel [ Value.Chunk (Chunk.of_string "ab\n"); Value.Int 3 ] with
      | _ -> Alcotest.failf "%s: Int item accepted" what
      | exception Value.Protocol_error _ -> ());
      check chunks (what ^ ": Str items as stream bytes")
        (run_chunked (Chunkline.map (line_fn boxed)) (mixed ()))
        (run_chunked kernel (mixed ())))
    kernels;
  check chunks "upcase over Str items" [ "AB  C\t\n"; "DE \n"; " F\t\n" ]
    (run_chunked Cat.chunked_upcase (mixed ()));
  check Alcotest.(triple int int int) "gauges at baseline" base (gauges ())

let suite =
  [
    Alcotest.test_case "basics" `Quick test_basics;
    Alcotest.test_case "zero-copy sub/split/concat" `Quick test_zero_copy;
    Alcotest.test_case "equal across segmentations" `Quick test_equal_segmented;
    Alcotest.test_case "typed faults" `Quick test_faults;
    Alcotest.test_case "gauge balance" `Quick test_gauge_balance;
    Alcotest.test_case "zero-length chunks are rootless" `Quick test_zero_length_rootless;
    prop_lifecycle;
    Alcotest.test_case "bin roundtrip + size law" `Quick test_bin_roundtrip;
    Alcotest.test_case "bin hostile chunk lengths" `Quick test_bin_hostile_chunk;
    Alcotest.test_case "value preview bounded" `Quick test_value_preview_bounded;
    Alcotest.test_case "gather parts law" `Quick test_parts_law;
    Alcotest.test_case "send_value wire-identical" `Quick test_send_value_wire_identical;
    Alcotest.test_case "flow meters count bytes" `Quick test_flow_meter_bytes;
    Alcotest.test_case "net.size sees chunk bytes" `Quick test_net_size_histogram_counts_chunks;
    Alcotest.test_case "flowctl chunked config" `Quick test_flowctl_chunked;
    Alcotest.test_case "resil replay refcount balance" `Quick test_resil_replay_balance;
    prop_twins;
    Alcotest.test_case "line kernels: layout, allocation, contracts" `Quick test_kernel_pins;
  ]
