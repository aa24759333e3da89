(** The asymmetric stream wire protocol.

    Two operations are enough for all three disciplines:

    - [Transfer] (active input ⇄ passive output): the consumer invokes
      [Transfer(channel, credit)] on the producer, which replies
      [(eos, items)] with [1 ≤ length items ≤ credit] unless the stream
      has ended.  This is the only operation the "read only" discipline
      needs, and is the operation of the paper's bootstrap system (§7).
    - [Deposit] (active output ⇄ passive input): the producer invokes
      [Deposit(channel, eos, items)] on the consumer; the reply doubles
      as the flow-control acknowledgement.

    A conventional Unix-style pipe supports both: [Deposit] fills it and
    [Transfer] drains it.

    {2 Resumable extension}

    For crash-resumable streams each form takes an optional trailing
    sequence number.  [Transfer(channel, credit, seq)] asks for items
    starting at absolute position [seq]; the reply [(eos, items, base)]
    echoes the position of its first item and, by carrying [seq],
    cumulatively acknowledges everything below it.  [Deposit(channel,
    eos, items, seq)] stamps its first item's position so a retried
    deposit is deduplicated, and the ack becomes [Int next_seq] — the
    position the consumer expects next (a plain Deposit's ack is unit).
    Legacy requests that omit the trailing field interoperate: the plain
    parsers accept both shapes, and the [_seq] parsers report the
    extension as an [option]. *)

module Value = Eden_kernel.Value

val transfer_op : string
val deposit_op : string

(** {1 Transfer} *)

val transfer_request : ?seq:int -> Channel.t -> credit:int -> Value.t

val parse_transfer_request : Value.t -> Channel.t * int
(** Accepts both plain and seq-stamped requests, dropping the seq.
    @raise Value.Protocol_error on malformed requests, including
    non-positive credit and a negative seq. *)

val parse_transfer_request_seq : Value.t -> Channel.t * int * int option
(** Like {!parse_transfer_request} but also reports the resume position,
    when present. *)

type transfer_reply = { eos : bool; items : Value.t list }

val transfer_reply : ?base:int -> transfer_reply -> Value.t
val parse_transfer_reply : Value.t -> transfer_reply
(** Accepts both plain and base-stamped replies, ignoring the base. *)

val parse_transfer_reply_base : Value.t -> transfer_reply * int option
(** Like {!parse_transfer_reply} but also reports the absolute position
    of the first item, when present. *)

(** {1 Deposit} *)

val deposit_request : ?seq:int -> Channel.t -> eos:bool -> Value.t list -> Value.t
val parse_deposit_request : Value.t -> Channel.t * bool * Value.t list
(** Accepts both plain and seq-stamped requests, dropping the seq. *)

val parse_deposit_request_seq : Value.t -> Channel.t * bool * Value.t list * int option

val deposit_ack : next_seq:int -> Value.t
val parse_deposit_ack : Value.t -> int
(** [next_seq], from a seq-stamped Deposit's ack.
    @raise Value.Protocol_error on anything else, a unit ack included. *)
