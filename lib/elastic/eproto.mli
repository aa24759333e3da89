(** Wire shapes private to the elastic stage.

    The router speaks the ordinary resumable [Deposit] protocol on both
    sides, but the {e items} it deposits on a replica link are tagged
    entries rather than raw stream data:

    - [Install] hands a replica ownership of a channel together with the
      channel's authoritative processing state and its per-channel input
      ([cseq]) and output ([oseq]) positions — the unit of drain/handoff.
    - [Item] is one datum for an installed channel, stamped with its
      per-channel input position so handoff continuity is checkable at
      the receiving replica.

    Both travel in one FIFO link, so an install always precedes the
    items that depend on it.  Replica outputs to the sink are stamped
    [(chan, oseq)] — the sink's per-channel turnstile admits each output
    position exactly once, which is what makes replays and adoptions
    duplicate-free end to end. *)

module Value = Eden_kernel.Value

type entry =
  | Install of { chan : int; cseq : int; oseq : int; state : Value.t }
  | Item of { chan : int; cseq : int; payload : Value.t }

val encode_entry : entry -> Value.t

val decode_entry : Value.t -> entry
(** @raise Value.Protocol_error on anything else. *)

val encode_out : chan:int -> oseq:int -> Value.t -> Value.t
val decode_out : Value.t -> int * int * Value.t

val encode_chan_state : chan:int -> cseq:int -> oseq:int -> Value.t -> Value.t

val encode_ckpt : in_seq:int -> out_pos:int -> Value.t list -> Value.t
val decode_ckpt : Value.t -> int * int * (int * int * int * Value.t) list

val sync_op : string
(** Forces a replica to flush its sink link and checkpoint {e now},
    replying with its durable input position — the drain barrier. *)

val finish_op : string
(** Tells the sink the stream is complete (all inputs durably processed,
    all outputs delivered); fills the done ivar. *)
