(** Chunk-at-a-time line filters for the zero-copy data plane.

    These lift line functions to streams of [Value.Chunk] byte slices
    cut at arbitrary positions.  One driver serves every filter: it
    reads each chunk's segments in place, carries the split tail line
    across chunk boundaries, and emits one output chunk per input
    chunk holding the lines that chunk completed, newline-terminated
    (a non-terminated final line gets its newline).  It is fed either
    per line ({!run} and everything built on it: a string per completed
    line, as {!Line}'s filters see it) or by a byte kernel ({!tr},
    {!rstrip}: one C pass over each slice and one copy out, no string
    per line).  Feeding a chunked filter and its boxed twin the same
    line stream yields byte-identical output; [test_chunk] holds every
    catalog pair and {!sed} to that over random cuts.

    Ownership: input chunks are consumed and released by the filter;
    output chunks are fresh roots owned by the downstream consumer.
    [Str] items are accepted as bytes of the same stream (mixed-plane
    streams degrade gracefully); other shapes raise
    [Value.Protocol_error].  All state lives in a run, so one filter
    value may run in many stages and domains at once. *)

val map : (string -> string) -> Eden_transput.Transform.t
val keep : (string -> bool) -> Eden_transput.Transform.t
val expand : (string -> string list) -> Eden_transput.Transform.t

val stateful :
  init:'s ->
  step:('s -> string -> 's * string list) ->
  flush:('s -> string list) ->
  Eden_transput.Transform.t
(** The [flush] lines leave at end of input, in the last output chunk
    after the last line's output. *)

val sed : Sed.script -> Eden_transput.Transform.t
(** The stream editor over byte slices: same engine as
    {!Sed.transform}, including [q] (stop consuming mid-chunk). *)

val run :
  on_line:(int -> string -> string list * bool) ->
  on_flush:(unit -> string list) ->
  Eden_transput.Transform.next ->
  Eden_transput.Transform.emit ->
  unit
(** The per-line feeder: [on_line lineno line] returns output lines
    and a quit flag. *)

(** {1 Byte kernels}

    Same output bytes and output chunk boundaries as {!map} of the
    line function they compute. *)

val tr : (char -> char) -> Eden_transput.Transform.t
(** [tr f] is [map (String.map f)] as one table lookup per byte.
    @raise Invalid_argument unless [f] sends ['\n'] to itself and no
    other byte to ['\n']. *)

val rstrip : (char -> bool) -> Eden_transput.Transform.t
(** [rstrip strip] drops each line's trailing bytes that [strip]
    selects.  @raise Invalid_argument if [strip '\n']. *)

val cut_gen : cut:int -> string -> unit -> Eden_kernel.Value.t option
(** Generator cutting a document into [cut]-byte chunks, deliberately
    ignoring line boundaries — the canonical chunked source for tests
    and benchmarks. *)
