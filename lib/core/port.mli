(** Passive output: the producer side of the "read only" discipline.

    A [Port] holds one outgoing buffer per channel.  The Eject's own
    processes write into it (blocking, for flow control); the [Transfer]
    handler that [handlers] returns serves incoming read requests from
    it.  This is exactly the paper's "standard IO module" arrangement
    (§4): the filter process is written conventionally with [write],
    while a server process — here the [Transfer] handler, run per
    invocation — feeds data to whoever asks.

    {b Laziness and anticipation.}  The per-channel [capacity] is the
    amount of output the Eject computes in advance of demand:

    - [capacity = 0] (default): fully lazy.  [write] blocks until a
      [Transfer] is outstanding, so no computation happens until a sink
      asks (§4's pure-transformer behaviour).
    - [capacity = k]: the writer may run up to [k] items ahead,
      restoring pipeline parallelism (§4's "read some input and
      buffer-up some output").

    {b Fan-out.}  Deliberately none within a channel: concurrent readers
    of one channel steal items from each other, which is the paper's
    argument (§5) for why naive read-only fan-out cannot work.  Use
    several channels for fan-out.

    {b Retention.}  A channel keeps its items in a {!Window} at absolute
    stream positions.  A plain channel discards an item once served; a
    {e retaining} channel keeps it until a seq-stamped request, which
    acknowledges everything below its [seq], moves past it — so a
    consumer that crashed before checkpointing a reply simply asks
    again.  Its state [encode]s into the owning Eject's checkpoint; a
    window restored behind its consumer parks requests until the owner
    regenerates the gap. *)

module Value = Eden_kernel.Value

type t
type writer

val create : unit -> t

val add_channel : t -> ?capacity:int -> ?retain:bool -> Channel.t -> writer
(** [retain] (default [false]) makes a retaining channel.
    @raise Invalid_argument on a duplicate channel or negative
    capacity. *)

val writer : t -> Channel.t -> writer
(** @raise Not_found if the channel was never added. *)

val write : writer -> Value.t -> unit
(** Queue one item, blocking while the buffer is at capacity and no
    unsatisfied demand is outstanding.  Fiber context only.
    @raise Failure after [close]. *)

val close : writer -> unit
(** End of stream for this channel; idempotent.  Outstanding and future
    [Transfer]s on it complete with [eos = true] once drained. *)

val await_demand : writer -> unit
(** Park until at least one [Transfer] is outstanding on this channel
    (on a retaining channel: until some requested position is not yet
    written), or it is closed.  A fully lazy producer calls this before
    doing any work at all, so that not even the first item is computed
    speculatively.  Fiber context only. *)

val await_writable : writer -> unit
(** Park until a subsequent [write] would succeed without blocking (or
    the channel is closed).  A producer that calls this before {e
    computing} each item does no work beyond its declared anticipation:
    none at capacity 0, at most [k] items ahead at capacity [k].  Fiber
    context only. *)

val is_closed : writer -> bool

val buffered : writer -> int
(** Items held (retaining: served but unacknowledged ones too). *)

val cursor : writer -> int
(** Stream position of the oldest item held. *)

val encode : writer -> Value.t

val load : writer -> Value.t -> unit
(** Restores an [encode]d state; demand rebuilds from the consumer's
    next request.  @raise Value.Protocol_error on a malformed state. *)

val handlers : t -> (string * Eden_kernel.Kernel.handler) list
(** The [Transfer] operation, to splice into the Eject's dispatch table.
    Requests for unregistered channels are refused — with a capability
    channel this refusal is what enforces security (T4).

    Plain [Transfer(chan, credit)] requests are served rendezvous-style:
    the reply carries whatever is buffered (up to [credit]) as soon as
    anything is.  Seq-stamped [Transfer(chan, credit, seq)] requests —
    issued by windowed {!Pull} clients that pipeline several transfers —
    are served {e exact-fill}: the request waits its turn at position
    [seq] and replies with exactly [credit] items unless the stream has
    closed, so a pipelining client can compute request positions ahead
    of any reply and a short reply always means end of stream; one
    below the cursor is refused as stale, adding no demand.  The two
    forms must not be mixed on one channel.  A retaining channel serves
    both forms rendezvous-style, a plain request from its oldest item. *)
