(** File comparison: the other multi-input filter §5 names
    ("examples of programs with multiple inputs include file comparison
    programs and stream editors ...").

    Two classic comparators, each available as a pure function and as a
    two-input read-only Eject (a stage holding two upstream UIDs — free
    fan-in — that reads one item per Transfer and computes nothing ahead
    of demand):

    - {!comm}: set comparison of two {e sorted} line streams, emitting
      ["<\tl"] (only in the first), [">\tl"] (only in the second) and
      ["=\tl"] (in both) in merged order;
    - {!diff}: an LCS-based line diff of two streams, emitting
      ed-script-style hunks with ["< "]/["> "]/["---"] detail lines. *)

val comm : string list -> string list -> string list
(** Inputs must be sorted; undefined interleaving otherwise. *)

val diff : string list -> string list -> string list
(** Empty output iff the inputs are equal. *)

val lcs_length : string list -> string list -> int
(** Length of a longest common subsequence (exposed for tests and for
    similarity metrics). *)

val comm_stage :
  Eden_kernel.Kernel.t ->
  left:Eden_kernel.Uid.t * Eden_transput.Channel.t ->
  right:Eden_kernel.Uid.t * Eden_transput.Channel.t ->
  unit ->
  Eden_kernel.Uid.t
(** Streaming: holds at most one line per side at a time. *)

val diff_stage :
  Eden_kernel.Kernel.t ->
  ?node:Eden_net.Net.node_id ->
  left:Eden_kernel.Uid.t * Eden_transput.Channel.t ->
  right:Eden_kernel.Uid.t * Eden_transput.Channel.t ->
  unit ->
  Eden_kernel.Uid.t
(** Buffers both inputs (LCS needs both ends), like diff(1) does. *)
