(** The filter catalog: the utilities §3 calls filters.

    "Text formatters, stream editors, spelling checkers, prettyprinters
    and paginators are all filters."  Every entry is a plain
    {!Eden_transput.Transform.t} over line streams, usable under any
    discipline via the {!Eden_transput.Stage} builders, in-process via
    {!Line.run}, or by name via {!by_name} (which is what the shell
    uses). *)

val strip_comments : ?prefix:string -> unit -> Eden_transput.Transform.t
(** Drops lines beginning with [prefix] (default ["C"] — the paper's
    Fortran comment-stripper example). *)

val grep : string -> Eden_transput.Transform.t
(** Keeps lines containing the substring. *)

val grep_v : string -> Eden_transput.Transform.t
val upcase : Eden_transput.Transform.t
val downcase : Eden_transput.Transform.t
val rot13 : Eden_transput.Transform.t

val translate : from:string -> into:string -> Eden_transput.Transform.t
(** tr(1): maps each character of [from] to the same-index character of
    [into].  @raise Invalid_argument on length mismatch. *)

val number_lines : ?start:int -> ?width:int -> unit -> Eden_transput.Transform.t
(** ["   1  line"] numbering like cat -n. *)

val head : int -> Eden_transput.Transform.t
val tail : int -> Eden_transput.Transform.t
(** Last [n] lines; necessarily buffers [n]. *)

val paginate : ?lines_per_page:int -> ?title:string -> unit -> Eden_transput.Transform.t
(** pr(1)-style paginator: a header line and ruled-off pages; partial
    final pages are flushed.  [lines_per_page] (default 10) counts body
    lines.  @raise Invalid_argument if non-positive. *)

val word_count : Eden_transput.Transform.t
(** Consumes everything; emits one ["lines words chars"] summary. *)

val sort_lines : Eden_transput.Transform.t
val reverse_lines : Eden_transput.Transform.t
(** tac(1). *)

val uniq : Eden_transput.Transform.t
(** Collapses runs of identical adjacent lines. *)

val squeeze_blank : Eden_transput.Transform.t
(** Collapses runs of blank lines to one. *)

val trim_trailing : Eden_transput.Transform.t
val expand_tabs : ?tabstop:int -> unit -> Eden_transput.Transform.t

val cut : delim:char -> field:int -> Eden_transput.Transform.t
(** 1-indexed field extraction; lines with too few fields pass through
    empty, matching cut(1)'s behaviour for missing fields. *)

val spell : dictionary:string list -> Eden_transput.Transform.t
(** Emits each word (lowercased) not present in the dictionary, once
    per occurrence — the classic spell(1) pipeline stage. *)


(** {1 Chunk-at-a-time counterparts}

    The same line functions lifted over [Value.Chunk] byte slices via
    {!Chunkline}; each pair is held byte-identical to its boxed
    sibling over random cuts by [test_chunk].  [chunked_upcase],
    [chunked_downcase] and [chunked_rot13] are {!Chunkline.tr} of the
    per-byte function their boxed twin maps, [chunked_trim_trailing] is
    {!Chunkline.rstrip} of {!trim_trailing}'s blank predicate; grep and
    numbering run per line. *)

val chunked_upcase : Eden_transput.Transform.t
val chunked_downcase : Eden_transput.Transform.t
val chunked_trim_trailing : Eden_transput.Transform.t
val chunked_rot13 : Eden_transput.Transform.t
val chunked_grep : string -> Eden_transput.Transform.t
val chunked_grep_v : string -> Eden_transput.Transform.t
val chunked_number_lines : unit -> Eden_transput.Transform.t
(** {!number_lines} with its defaults: from 1, four columns wide. *)

val by_name : string -> string list -> (Eden_transput.Transform.t, string) result
(** Shell-facing constructor: [by_name "grep" ["pattern"]].  [Error]
    describes unknown names or bad arguments. *)

val names : string list
(** All names [by_name] recognises, sorted. *)
