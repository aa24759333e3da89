(** Passive input: the consumer side of the "write only" discipline.

    An [Intake] holds one incoming bounded buffer per channel.  The
    [Deposit] handler from [handlers] accepts data pushed by upstream
    Ejects — blocking the depositor (by delaying its reply) when the
    buffer is full, which is how back-pressure propagates in the
    write-only discipline — and the Eject's own processes drain it with
    [read].

    {b Fan-in.}  Deliberately unattributed within a channel: deposits
    from different senders interleave indistinguishably, the paper's
    observation (§5) that write-only gives a single merged source.  Use
    several channels to keep inputs apart (the secondary inputs of an
    impure write-only filter). *)

module Value = Eden_kernel.Value

type t
type reader

val create : unit -> t

val add_channel : t -> ?capacity:int -> Channel.t -> reader
(** [capacity] (default 1) must be at least 1: a zero-capacity intake
    could never accept a deposit.  @raise Invalid_argument otherwise or
    on a duplicate channel. *)

val reader : t -> Channel.t -> reader
(** @raise Not_found if the channel was never added. *)

val read : reader -> Value.t option
(** Next item, blocking while the buffer is empty and the stream open;
    [None] after end of stream.  Fiber context only. *)

val eos_seen : reader -> bool
val buffered : reader -> int

val admit : expected:int -> seq:int -> 'a list -> 'a list option
(** The resumable deposit rule, for a consumer that has accepted every
    position below [expected] and receives a deposit whose first item
    sits at [seq]: the fresh suffix, with the replayed prefix (already
    accepted before a retry or a producer restart) dropped, or [None]
    for a gap ([seq > expected]).  Each caller chooses its own answer
    to a gap. *)

val handlers : t -> (string * Eden_kernel.Kernel.handler) list
(** The [Deposit] operation, to splice into the Eject's dispatch
    table.

    Plain [Deposit(chan, eos, items)] requests are accepted in arrival
    order and acknowledged with [Unit].  Seq-stamped [Deposit(chan,
    eos, items, seq)] requests — issued by windowed {!Push} clients
    with several deposits in flight — wait at a turnstile until the
    intake has accepted every earlier position, so network reordering
    cannot scramble the stream; the ack is [Int next_seq].  A stale
    (already-accepted) position errors.  The two forms must not be
    mixed on one channel, and a windowed channel must have a single
    writer. *)
