(* Mbuf-style chunks: flat byte payloads moved through the data plane
   by reference.

   A chunk is a chain of segments, each a [off, off+len) window onto a
   reference-counted root Bigarray.  [sub], [split] and [concat] build
   new chains over the same roots without touching the payload bytes;
   the only copies the data plane ever makes are the explicit ones at
   a codec or syscall boundary ([to_string], [blit_to_bytes],
   [of_string]).

   Ownership is explicit: every handle owns one reference per segment
   on that segment's root, and [release] returns them.  The discipline
   is deliberately stricter than the GC needs because the accounting is
   the point: a pipeline that leaks references or frees twice has a
   protocol bug that the simulator should surface, not paper over.
   Double release and use after release raise the typed [Fault] rather
   than corrupt counts.  It also recycles memory: when a root's last
   reference goes, its buffer goes back to a pool that the next root of
   its size class takes it from, on whichever domain, so a steady
   stream of chunks runs on the same few buffers instead of faulting in
   fresh pages.

   Refcounts, the global gauges and the pools are [Atomic]: chunks
   cross domains by reference in the parallel runtime. *)

type buffer = (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

(* Bulk byte primitives (chunk_stubs.c): per-byte Bigarray access from
   OCaml is the dominant cost of the chunked hot path, so the three
   inner loops are memcpy/memchr.  Callers bounds-check first. *)
external unsafe_blit_ba_bytes : buffer -> int -> Bytes.t -> int -> int -> unit
  = "eden_chunk_blit_ba_bytes"
  [@@noalloc]

external unsafe_blit_string_ba : string -> int -> buffer -> int -> int -> unit
  = "eden_chunk_blit_string_ba"
  [@@noalloc]

external unsafe_memchr : buffer -> int -> int -> char -> int = "eden_chunk_memchr"
  [@@noalloc]

type fault = Double_release | Use_after_free

let fault_name = function
  | Double_release -> "double release"
  | Use_after_free -> "use after free"

exception Fault of fault * string

let faulty f fmt =
  Printf.ksprintf (fun m -> raise (Fault (f, fault_name f ^ ": " ^ m))) fmt

(* [size] is the bytes asked for; a recycled [buf] may be longer. *)
type root = { buf : buffer; size : int; refs : int Atomic.t }

(* A retained view of one root. *)
type seg = { root : root; off : int; len : int }

type t = { segs : seg list; total : int; released : bool Atomic.t }

(* --- Global accounting gauges --------------------------------------- *)

let roots_live = Atomic.make 0
let bytes_live = Atomic.make 0
let views_live = Atomic.make 0
let buffers_made = Atomic.make 0

let live_roots () = Atomic.get roots_live
let live_bytes () = Atomic.get bytes_live
let live_views () = Atomic.get views_live
let fresh_buffers () = Atomic.get buffers_made

(* --- Recycled buffers -------------------------------------------------- *)

(* Roots of [2^pool_min_bits] to [2^pool_max_bits] bytes get a buffer
   of the next power of two, their size class; smaller and larger roots
   get one of exactly their size.  Every domain shares a class's one
   pool, since a chunk is often released on another domain than the
   one that made it: an immutable list in an [Atomic], popped and pushed
   by compare-and-set on its head.  A popped cell is never again
   reachable from the head, so no two pops take one buffer; a push
   succeeds only on the list whose length it checked, so a class keeps
   at most [pool_depth] buffers. *)
let pool_min_bits = 12
let pool_max_bits = 20
let pool_depth = 8
let pools = Array.init (pool_max_bits - pool_min_bits + 1) (fun _ -> Atomic.make [])

(* The size class of an [n]-byte buffer, or -1 if it is not pooled. *)
let size_class n =
  if n < 1 lsl pool_min_bits || n > 1 lsl pool_max_bits then -1
  else
    let rec go k = if 1 lsl (pool_min_bits + k) >= n then k else go (k + 1) in
    go 0

let make_buffer n =
  Atomic.incr buffers_made;
  Bigarray.Array1.create Bigarray.char Bigarray.c_layout n

let rec recycled_buffer n =
  match size_class n with
  | -1 -> make_buffer n
  | k -> (
      match Atomic.get pools.(k) with
      | [] -> make_buffer (1 lsl (pool_min_bits + k))
      | buf :: rest as l ->
          if Atomic.compare_and_set pools.(k) l rest then buf else recycled_buffer n)

let rec recycle buf =
  match size_class (Bigarray.Array1.dim buf) with
  | -1 -> ()
  | k ->
      let l = Atomic.get pools.(k) in
      if List.compare_length_with l pool_depth < 0 then
        if not (Atomic.compare_and_set pools.(k) l (buf :: l)) then recycle buf

(* --- Allocation ------------------------------------------------------ *)

let fresh_root n =
  let buf = recycled_buffer n in
  Atomic.incr roots_live;
  ignore (Atomic.fetch_and_add bytes_live n);
  { buf; size = n; refs = Atomic.make 0 }

let retain root = Atomic.incr root.refs

let release_root root =
  if Atomic.fetch_and_add root.refs (-1) = 1 then begin
    Atomic.decr roots_live;
    ignore (Atomic.fetch_and_add bytes_live (-root.size));
    recycle root.buf
  end

let view segs total =
  List.iter (fun s -> retain s.root) segs;
  Atomic.incr views_live;
  { segs; total; released = Atomic.make false }

(* A zero-length chunk has no segment, so no [release] could ever
   return a root made for it: it is rootless, like [empty]. *)
let empty () = view [] 0

let alloc n =
  if n < 0 then invalid_arg "Chunk.alloc: negative length";
  if n = 0 then empty ()
  else begin
    let root = fresh_root n in
    Bigarray.Array1.fill (Bigarray.Array1.sub root.buf 0 n) '\000';
    view [ { root; off = 0; len = n } ] n
  end

let of_substring s ~pos ~len =
  if pos < 0 || len < 0 || pos + len > String.length s then
    invalid_arg "Chunk.of_substring: range outside string";
  if len = 0 then empty ()
  else begin
    let root = fresh_root len in
    unsafe_blit_string_ba s pos root.buf 0 len;
    view [ { root; off = 0; len } ] len
  end

let of_string s = of_substring s ~pos:0 ~len:(String.length s)

(* --- Liveness --------------------------------------------------------- *)

let length t = t.total
let is_released t = Atomic.get t.released
let segments t = List.length t.segs

let check t what =
  if Atomic.get t.released then faulty Use_after_free "%s on a released chunk" what

let release t =
  if not (Atomic.compare_and_set t.released false true) then
    faulty Double_release "chunk of %d bytes released twice" t.total
  else begin
    List.iter (fun s -> release_root s.root) t.segs;
    Atomic.decr views_live
  end

(* --- Reads ------------------------------------------------------------ *)

let get t i =
  check t "get";
  if i < 0 || i >= t.total then invalid_arg "Chunk.get: index out of bounds";
  let rec go i = function
    | [] -> assert false
    | s :: rest -> if i < s.len then Bigarray.Array1.unsafe_get s.root.buf (s.off + i) else go (i - s.len) rest
  in
  go i t.segs

let blit_to_bytes t ~src_pos b ~dst_pos ~len =
  check t "blit_to_bytes";
  if src_pos < 0 || len < 0 || src_pos + len > t.total then
    invalid_arg "Chunk.blit_to_bytes: range outside chunk";
  if dst_pos < 0 || dst_pos + len > Bytes.length b then
    invalid_arg "Chunk.blit_to_bytes: range outside destination";
  let rec go segs skip dst remaining =
    if remaining > 0 then
      match segs with
      | [] -> assert false
      | s :: rest ->
          if skip >= s.len then go rest (skip - s.len) dst remaining
          else begin
            let n = min (s.len - skip) remaining in
            unsafe_blit_ba_bytes s.root.buf (s.off + skip) b dst n;
            go rest 0 (dst + n) (remaining - n)
          end
  in
  go t.segs src_pos dst_pos len

let to_string t =
  check t "to_string";
  let b = Bytes.create t.total in
  blit_to_bytes t ~src_pos:0 b ~dst_pos:0 ~len:t.total;
  Bytes.unsafe_to_string b

let fold_slices t ~init ~f =
  check t "fold_slices";
  List.fold_left (fun acc s -> f acc s.root.buf ~pos:s.off ~len:s.len) init t.segs

let index_from t pos c =
  check t "index_from";
  if pos < 0 || pos > t.total then invalid_arg "Chunk.index_from: position out of bounds";
  let rec go segs skip base =
    match segs with
    | [] -> None
    | s :: rest ->
        if skip >= s.len then go rest (skip - s.len) (base + s.len)
        else begin
          let found = unsafe_memchr s.root.buf (s.off + skip) (s.len - skip) c in
          if found >= 0 then Some (base + (found - s.off)) else go rest 0 (base + s.len)
        end
  in
  go t.segs pos 0

let equal a b =
  check a "equal";
  check b "equal";
  a.total = b.total
  &&
  let rec go sa oa sb ob =
    (* Normalise both cursors past exhausted segments first: either
       side may run out of segments while the other still holds a
       fully-consumed (or empty) one. *)
    match sa with
    | a0 :: ra when oa >= a0.len -> go ra 0 sb ob
    | _ -> (
        match sb with
        | b0 :: rb when ob >= b0.len -> go sa oa rb 0
        | _ -> (
            match (sa, sb) with
            | [], [] -> true
            | [], _ :: _ | _ :: _, [] -> false
            | a0 :: _, b0 :: _ ->
                Char.equal
                  (Bigarray.Array1.unsafe_get a0.root.buf (a0.off + oa))
                  (Bigarray.Array1.unsafe_get b0.root.buf (b0.off + ob))
                && go sa (oa + 1) sb (ob + 1)))
  in
  go a.segs 0 b.segs 0

(* --- Zero-copy restructuring ------------------------------------------ *)

let sub t ~pos ~len =
  check t "sub";
  if pos < 0 || len < 0 || pos + len > t.total then
    invalid_arg "Chunk.sub: range outside chunk";
  let rec go segs skip remaining acc =
    if remaining = 0 then List.rev acc
    else
      match segs with
      | [] -> assert false
      | s :: rest ->
          if skip >= s.len then go rest (skip - s.len) remaining acc
          else begin
            let n = min (s.len - skip) remaining in
            go rest 0 (remaining - n) ({ s with off = s.off + skip; len = n } :: acc)
          end
  in
  view (go t.segs pos len []) len

let split t n =
  check t "split";
  if n < 0 || n > t.total then invalid_arg "Chunk.split: position out of bounds";
  (sub t ~pos:0 ~len:n, sub t ~pos:n ~len:(t.total - n))

let concat ts =
  List.iter (fun t -> check t "concat") ts;
  let segs = List.concat_map (fun t -> t.segs) ts in
  let total = List.fold_left (fun acc t -> acc + t.total) 0 ts in
  view segs total

(* --- Rendering -------------------------------------------------------- *)

let preview ?(max_len = 32) t =
  if Atomic.get t.released then Printf.sprintf "chunk<%d released>" t.total
  else begin
    let shown = min max_len t.total in
    let b = Bytes.create shown in
    blit_to_bytes t ~src_pos:0 b ~dst_pos:0 ~len:shown;
    Printf.sprintf "chunk<%d%s%S%s>" t.total
      (if shown > 0 then ":" else "")
      (Bytes.unsafe_to_string b)
      (if shown < t.total then "…" else "")
  end

let pp ppf t = Format.pp_print_string ppf (preview t)
