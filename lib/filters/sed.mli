(** A stream editor.

    §3 lists stream editors among the canonical filters, and §5 singles
    them out as the motivating multi-input case: "stream editors that
    have a command input as well as a text input".  This module provides
    both shapes:

    - {!transform}: a compiled script as an ordinary single-input
      {!Eden_transput.Transform.t};
    - {!two_input_stage}: a read-only Eject with {e two} upstreams — it
      first drains its command stream, compiles it, then edits the text
      stream.  Multiple inputs are trivial under the read-only
      discipline (§5): the stage simply holds two UIDs.

    Supported commands (one per line in scripts):

    {v
    [addr[,addr]] s/REGEX/REPLACEMENT/[g]    substitute (& = whole match)
    [addr[,addr]] d                          delete line
    [addr[,addr]] p                          print line (again)
    [addr[,addr]] y/SET1/SET2/               transliterate
    [addr[,addr]] q                          quit (stop reading input)
    [addr[,addr]] i\TEXT                     insert TEXT before line
    [addr[,addr]] a\TEXT                     append TEXT after line
    v}

    where [addr] is a line number, [$] (last line — only usable with
    buffering, so rejected here), or [/REGEX/].  Any punctuation may
    replace [/] as the s- and y-delimiter.  Patterns are full regular
    expressions (the [re] library). *)

type script

val parse_script : string list -> (script, string) result
(** Whole script; blank lines and [#] comments are skipped.  [Error]
    carries the offending line and reason. *)

val transform : script -> Eden_transput.Transform.t

val run_lines : script -> string list -> string list
(** Pure application, for tests and tools. *)

(** {1 Line-at-a-time core}

    Exposed so the chunk-at-a-time mode ({!Chunkline.sed}) can drive
    the same engine over byte slices. *)

val fresh : script -> script
(** Commands carry mutable range state; take a fresh copy per run. *)

val apply_line : script -> int -> string -> string list * bool
(** [apply_line script lineno line] is the lines to output and whether
    a [q] command fired.  Mutates the script's range state. *)

val two_input_stage :
  Eden_kernel.Kernel.t ->
  ?node:Eden_net.Net.node_id ->
  commands:Eden_kernel.Uid.t * Eden_transput.Channel.t ->
  text:Eden_kernel.Uid.t * Eden_transput.Channel.t ->
  unit ->
  Eden_kernel.Uid.t
(** The §5 editor: output on {!Eden_transput.Channel.output}, nothing
    edited ahead of demand; each input is read one item per Transfer.
    A script that fails to parse surfaces as a worker failure naming the
    bad command. *)
