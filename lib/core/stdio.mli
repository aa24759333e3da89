(** The "standard IO module" of §4.

    "It is possible to adopt a more conventional style of programming
    by adding an extra process to the filter.  The standard IO module
    obtained from a library would implement the usual Write operations
    that put characters into a buffer.  However, that buffer would be
    shared with a process that receives invocations which request data
    and services them.  The filter process itself would be programmed in
    the conventional way and make use of the Write operations whenever
    necessary."

    [out_stream] is that veneer: character-oriented [output_string] /
    [print_line] calls accumulate in a line buffer and flush as stream
    items into a {!Port} writer, whose Transfer handler is the "process
    that services requests".  [in_stream] is the mirror image over a
    {!Pull}.  {!filter_ro} packages the whole §4 arrangement: write an
    ordinary [while read/print] program and get a read-only filter
    Eject. *)

module Value = Eden_kernel.Value
module Kernel = Eden_kernel.Kernel
module Uid = Eden_kernel.Uid

(** {1 Output} *)

type out_stream

val output_char : out_stream -> char -> unit
(** Buffered; a ['\n'] completes the current line and emits it as one
    stream item (blocking on flow control like any {!Port.write}). *)

val output_string : out_stream -> string -> unit
val print_line : out_stream -> string -> unit
(** [output_string] plus the terminating newline. *)

val printf : out_stream -> ('a, unit, string, unit) format4 -> 'a

val close_out : out_stream -> unit
(** Emits any unterminated partial line, then closes the channel.
    Idempotent. *)

(** {1 Input} *)

type in_stream

val input_line : in_stream -> string option
(** Next line; [None] at end of stream. *)

val input_char : in_stream -> char option
(** Character-at-a-time view of the same stream; the newline between
    items is materialised as ['\n']. *)

val iter_lines : (string -> unit) -> in_stream -> unit

(** {1 The conventional filter} *)

val filter_ro : Kernel.t -> upstream:Uid.t -> (in_stream -> out_stream -> unit) -> Uid.t
(** A read-only filter Eject, reading [upstream]'s {!Channel.output}
    one item per Transfer and producing nothing ahead of demand, whose
    body is written against conventional [input_line]/[print_line]
    operations; the asymmetric protocol is entirely hidden in this
    module, which is the paper's point about where the burden moves. *)
