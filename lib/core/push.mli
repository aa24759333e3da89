(** Active output: a client-side connection that writes to a remote
    Eject's channel by issuing [Deposit] invocations.

    The dual of {!Pull}: in the write-only discipline a producer knows
    where its output goes, while consumers never know who feeds them.
    Items accumulate locally until [batch] are pending, then travel in
    one [Deposit]; [close] flushes the remainder with the end-of-stream
    mark. *)

module Value = Eden_kernel.Value

type t

val connect :
  Eden_kernel.Kernel.ctx ->
  ?batch:int ->
  ?flowctl:Eden_flowctl.Flowctl.t ->
  ?channel:Channel.t ->
  ?wrap:(Value.t -> Value.t) ->
  ?retry:Eden_resil.Retry.client ->
  ?from:int ->
  Eden_kernel.Uid.t ->
  t
(** [wrap] (default identity) envelopes every [Deposit] request value
    before invocation — the session-token hook for tenant-guarded
    intakes, mirroring {!Pull.connect}.

    [flowctl] (when given) supersedes [batch].  A legacy config keeps
    the synchronous one-deposit-at-a-time path; anything else switches
    to {e windowed} mode: up to the credit window's worth of
    seq-stamped deposits are kept in flight (the intake's turnstile
    reorders scrambled arrivals), and an [Adaptive] config sizes the
    flush threshold with an {!Eden_flowctl.Aimd} controller.  A
    [Chunked] config switches flushing from item counting to byte
    counting: pending [Value.Chunk] items coalesce (zero-copy concat;
    the written handles are released, ownership of the bytes moves to
    the coalesced chunk) and travel as one chunk per deposit once
    [chunk_bytes] are pending.  Non-chunk items under a chunked config
    flush uncoalesced — mixing planes is legal but buys nothing.  A
    windowed channel must have a single writer.

    [retry] makes the connection {e resumable}, whatever [flowctl]
    says: one seq-stamped deposit at a time, retried through
    {!Eden_resil.Retry}, carrying every item not yet acknowledged.  The
    consumer deduplicates by position ({!Intake.admit}) and acknowledges
    the position it expects next: a short acknowledgement re-deposits
    the remainder (and shrinks an [Adaptive] threshold), and a producer
    restarted from an old checkpoint skips its [write]s below the
    acknowledged position.  Chunks are not coalesced on this path.

    [from] (default 0) is the position of the first [write].
    @raise Invalid_argument if [batch < 1] or [from < 0]. *)

val write : t -> Value.t -> unit
(** Queue one item, depositing when the batch fills.  The deposit blocks
    until the consumer accepts (back-pressure).  Fiber context only.
    @raise Failure after [close]. *)

val flush : t -> unit
(** Deposit any pending items immediately (resumable: and wait until
    they are acknowledged). *)

val close : t -> unit
(** Flush and send end of stream (always the final deposit, empty if
    nothing is pending), then — in windowed mode — drain every
    outstanding ack, so failures surface and the whole stream is known
    accepted on return.  Idempotent. *)

val sink : t -> Eden_kernel.Uid.t
val channel : t -> Channel.t
val deposits_issued : t -> int

val pos : t -> int
(** Stream position of the next [write]. *)

val pending : t -> int
(** Items written but not yet deposited (resumable: not yet
    acknowledged); 0 at batch boundaries. *)

val chunks_sent : t -> int
(** Deposits that carried a (possibly coalesced) chunk under the
    chunked config — the observable proof that the chunked plane was
    not silently downgraded.  0 outside chunked mode. *)

val controller : t -> Eden_flowctl.Aimd.t option
(** The adaptive controller of a windowed or resumable connection;
    [None] in sync or fixed-batch mode. *)

val stalls : t -> int
(** Windowed mode: deposits that found the window full with the oldest
    ack still in flight and had to wait.  0 otherwise. *)
