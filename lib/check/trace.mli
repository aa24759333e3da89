(** Decision traces: the single record of every nondeterministic choice
    made during one explored schedule.

    A trace interleaves two entry kinds in execution order:

    - [Pick]: a decision the explorer {e made} — a run-queue pick
      (["sched.run"]), a timer tie-break (["sched.timer"]), a
      deterministic-cluster shard pick (["par.shard"]), or any
      harness-level [Check.decide] point.  [n] is the number of legal
      alternatives (always [>= 2]; one-way points are not recorded) and
      [chosen] the 0-based index taken.
    - [Note]: a decision some component made {e itself} and reported via
      [Sched.note] — a network loss draw (["net.loss"], arg 0/1), a
      partition drop (["net.partition"]), a crash firing
      (["kernel.crash"]), a credit grant or return (["credit.take"] /
      ["credit.give"], arg = resulting in-flight count).

    Replaying a schedule feeds the [Pick] entries back in order; the
    [Note] entries then re-occur identically, which is what
    [Check.replay] verifies when it checks bit-identical reproduction. *)

type entry =
  | Pick of { kind : string; n : int; chosen : int }
  | Note of { kind : string; arg : int }

type t = entry list
(** Entries in execution order. *)

val equal : t -> t -> bool

val picks : t -> int list
(** The [chosen] value of every [Pick], in order — the replayable spine
    of the schedule. *)

val pick_entries : t -> (string * int * int) list
(** [(kind, n, chosen)] of every [Pick], in order. *)

val decisions : ?kind:string -> t -> (string * int) list
(** [(kind, chosen)] of every [Pick], in order, optionally restricted
    to one kind.  The bridge to fault injection on the real transport:
    [decisions ~kind:"net.loss"] is exactly the per-frame loss script
    that [Eden_wire.Faults.of_events] replays at the framing layer. *)

val pick_count : t -> int
val nonzero_picks : t -> int
(** Picks that deviate from the FIFO default of [0]. *)

val line_of_entry : entry -> string
(** One-line textual form: [pick <kind> <n> <chosen>] or
    [note <kind> <arg>].  Kinds contain no whitespace. *)

val entry_of_line : string -> entry option
(** Inverse of {!line_of_entry}; [None] on malformed lines. *)
