(* Chunk-at-a-time line filters.

   The chunked data plane moves flat byte chunks cut at arbitrary
   positions; a line filter must behave as if it had seen the boxed
   one-line-per-item stream.  One driver does that stream work for
   every filter here: it hands each input item's slices, in place, to
   the filter's feeder, carries the partial tail line across items,
   emits one output chunk per input item with the lines that item
   completed, adds the canonical final newline, and releases each
   input chunk.

   A feeder is either the per-line callback ([run]: each completed
   line is copied out as a string for the callback) or a byte kernel
   ([tr], [rstrip]: one C loop per slice, no string per line).  Both
   write into one per-run output buffer whose [0, line_start) holds
   completed output lines and [line_start, len) the tail line carried
   so far, so every emit is a single [Chunk.of_substring] of the
   completed prefix.

   Ownership: an input chunk is consumed — its bytes are read, then
   the handle is released.  Output chunks are fresh roots owned by the
   downstream consumer.  Boxed [Str] items are accepted too, as bytes
   of the same stream (their outputs still leave as chunks), so a
   mixed-plane stream degrades gracefully instead of failing; any
   other value shape is a protocol error, exactly as for the boxed
   line filters. *)

module Value = Eden_kernel.Value
module Chunk = Eden_chunk.Chunk
module Transform = Eden_transput.Transform

(* Loops in chunk_stubs.c; callers bounds-check first.  The kernels
   return the new end of the output they wrote. *)
external unsafe_memchr : Chunk.buffer -> int -> int -> char -> int = "eden_chunk_memchr"
  [@@noalloc]

external unsafe_blit_ba_bytes : Chunk.buffer -> int -> Bytes.t -> int -> int -> unit
  = "eden_chunk_blit_ba_bytes"
  [@@noalloc]

external unsafe_tr : string -> Chunk.buffer -> int -> int -> Bytes.t -> int -> int
  = "eden_chunk_tr_byte" "eden_chunk_tr"
  [@@noalloc]

external unsafe_rstrip : string -> Chunk.buffer -> int -> int -> Bytes.t -> int -> int
  = "eden_chunk_rstrip_byte" "eden_chunk_rstrip"
  [@@noalloc]

type out = {
  mutable buf : Bytes.t;
  mutable len : int;
  mutable line_start : int;
  mutable quit : bool;  (** stop consuming input (sed's [q]) *)
}

let reserve o n =
  if o.len + n > Bytes.length o.buf then begin
    let buf = Bytes.create (max (o.len + n) (2 * Bytes.length o.buf)) in
    Bytes.blit o.buf 0 buf 0 o.len;
    o.buf <- buf
  end

let add_slice o b pos len =
  reserve o len;
  unsafe_blit_ba_bytes b pos o.buf o.len len;
  o.len <- o.len + len

let add_line o s =
  let n = String.length s in
  reserve o (n + 1);
  Bytes.blit_string s 0 o.buf o.len n;
  Bytes.set o.buf (o.len + n) '\n';
  o.len <- o.len + n + 1

(* What the driver feeds when input ends mid-line. *)
let newline = Bigarray.Array1.init Bigarray.char Bigarray.c_layout 1 (fun _ -> '\n')

(* [feed o b pos len] appends the output of slice [b[pos, pos+len)] to
   [o] and moves [o.line_start] past every line it completes; [flush o]
   appends the end-of-stream output lines once input has ended, and all
   of them leave in the last chunk. *)
let drive ~feed ~flush next emit =
  let o = { buf = Bytes.create 4096; len = 0; line_start = 0; quit = false } in
  let emit_lines () =
    if o.line_start > 0 then begin
      let c = Chunk.of_substring (Bytes.unsafe_to_string o.buf) ~pos:0 ~len:o.line_start in
      Bytes.blit o.buf o.line_start o.buf 0 (o.len - o.line_start);
      o.len <- o.len - o.line_start;
      o.line_start <- 0;
      emit (Value.Chunk c)
    end
  in
  let slice () b ~pos ~len = if not o.quit then feed o b pos len in
  let consume c =
    Chunk.fold_slices c ~init:() ~f:slice;
    Chunk.release c;
    emit_lines ()
  in
  let rec go () =
    if not o.quit then
      match next () with
      | None ->
          if o.len > o.line_start then feed o newline 0 1;
          flush o;
          o.line_start <- o.len;
          emit_lines ()
      | Some (Value.Chunk c) ->
          consume c;
          go ()
      | Some (Value.Str s) ->
          consume (Chunk.of_string s);
          go ()
      | Some v ->
          raise
            (Value.Protocol_error
               ("chunk line filter: expected chunk or string, got " ^ Value.preview v))
  in
  go ()

(* [on_line lineno line] returns the output lines and whether to quit
   (stop consuming input, sed's [q]). *)
let run ~on_line ~on_flush next emit =
  let lineno = ref 1 in
  (* A completed line: the carried tail, if any, then [b[pos, pos+len)]. *)
  let take o b pos len =
    if o.len = o.line_start then begin
      let s = Bytes.create len in
      unsafe_blit_ba_bytes b pos s 0 len;
      Bytes.unsafe_to_string s
    end
    else begin
      add_slice o b pos len;
      let s = Bytes.sub_string o.buf o.line_start (o.len - o.line_start) in
      o.len <- o.line_start;
      s
    end
  in
  let rec feed o b pos len =
    if len > 0 && not o.quit then begin
      let j = unsafe_memchr b pos len '\n' in
      if j < 0 then add_slice o b pos len
      else begin
        let outputs, quit = on_line !lineno (take o b pos (j - pos)) in
        incr lineno;
        List.iter (add_line o) outputs;
        o.line_start <- o.len;
        if quit then o.quit <- true;
        feed o b (j + 1) (pos + len - (j + 1))
      end
    end
  in
  drive ~feed ~flush:(fun o -> List.iter (add_line o) (on_flush ())) next emit

let rec last_newline b i stop =
  if i < stop then -1
  else if Bigarray.Array1.unsafe_get b i = '\n' then i
  else last_newline b (i - 1) stop

(* Both kernels turn each input '\n' into exactly one output '\n' and
   copy the bytes after a slice's last '\n' one for one, so the lines
   they complete end where that tail begins.  Slices come from
   [Chunk.fold_slices] (or are [newline]), so they lie inside their
   buffer; [reserve] makes room for the at most [len] bytes written. *)
let kernel k next emit =
  let feed o b pos len =
    reserve o len;
    o.len <- k b pos len o.buf o.len;
    let j = last_newline b (pos + len - 1) pos in
    if j >= 0 then o.line_start <- o.len - (pos + len - 1 - j)
  in
  drive ~feed ~flush:ignore next emit

(* A kernel's byte table is built per run, not when the filter value is
   made: the catalog makes its chunked filters when it loads, in every
   process, and most of them never run there. *)
let tr f : Transform.t =
  for i = 0 to 255 do
    if Char.equal (f (Char.chr i)) '\n' <> (i = Char.code '\n') then
      invalid_arg "Chunkline.tr: the map must send '\\n' to itself and nothing else to '\\n'"
  done;
  fun next emit ->
    let table = String.init 256 (fun i -> f (Char.chr i)) in
    kernel (unsafe_tr table) next emit

let rstrip strip : Transform.t =
  if strip '\n' then invalid_arg "Chunkline.rstrip: the predicate must be false on '\\n'";
  fun next emit ->
    let table = String.init 256 (fun i -> if strip (Char.chr i) then '\001' else '\000') in
    kernel (unsafe_rstrip table) next emit

let stateful ~init ~step ~flush : Transform.t =
 fun next emit ->
  let st = ref init in
  run
    ~on_line:(fun _ line ->
      let st', outs = step !st line in
      st := st';
      (outs, false))
    ~on_flush:(fun () -> flush !st)
    next emit

let map f = stateful ~init:() ~step:(fun () l -> ((), [ f l ])) ~flush:(fun () -> [])

let keep pred =
  stateful ~init:() ~step:(fun () l -> ((), if pred l then [ l ] else [])) ~flush:(fun () -> [])

let expand f = stateful ~init:() ~step:(fun () l -> ((), f l)) ~flush:(fun () -> [])

let sed script : Transform.t =
 fun next emit ->
  let script = Sed.fresh script in
  run
    ~on_line:(fun lineno line -> Sed.apply_line script lineno line)
    ~on_flush:(fun () -> [])
    next emit

(* Cut a newline-terminated document into chunks of [cut] bytes — the
   generator half of the chunked plane, deliberately misaligned with
   line boundaries so carry-over is exercised. *)
let cut_gen ~cut doc =
  if cut < 1 then invalid_arg "Chunkline.cut_gen: cut must be at least 1";
  let pos = ref 0 in
  fun () ->
    if !pos >= String.length doc then None
    else begin
      let n = min cut (String.length doc - !pos) in
      let c = Chunk.of_substring doc ~pos:!pos ~len:n in
      pos := !pos + n;
      Some (Value.Chunk c)
    end
