(** Active input: a client-side connection that reads a remote Eject's
    channel by issuing [Transfer] invocations.

    A [Pull.t] embodies the paper's observation that in the read-only
    discipline a consumer knows {e where} its input comes from (it holds
    the producer's UID and a channel identifier) while producers never
    know who reads them.  Items are fetched [batch] at a time —
    batching is one of the ablations (T5) — and handed out one by one. *)

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
(** [batch] defaults to 1 (one invocation per datum, the paper's
    counting regime); [channel] to {!Channel.output}.

    [wrap] (default identity) is applied to every [Transfer] request
    value before it is invoked — the hook a tenant-aware connection
    uses to envelope requests with its session token
    ({!Eden_tenant.Tenant.wrap}); the destination guard unwraps before
    the port ever parses.

    [flowctl] (when given) supersedes [batch].  A legacy config
    ({!Eden_flowctl.Flowctl.legacy}) keeps the synchronous one-transfer-
    at-a-time path; anything else switches the connection to {e
    windowed} mode: up to the credit window's worth of seq-stamped
    transfers are kept in flight at once (positions computed from the
    credits asked, sound under the port's exact-fill serving), and an
    [Adaptive] config sizes each request with an {!Eden_flowctl.Aimd}
    controller.  No transfer is issued before the first [read], so
    laziness is preserved.

    [retry] makes the connection {e resumable}, whatever [flowctl]
    says: one seq-stamped transfer at a time, retried through
    {!Eden_resil.Retry}, for the position after the last item received.
    A lost message or reply, or a crashed producer, costs only time, and
    the stamp makes the re-request idempotent; a reply based elsewhere
    is a protocol error.  The stamp acknowledges everything below it to
    a retaining {!Port}, so a resumable stage checkpoints {!pos} at
    batch boundaries ([buffered] = 0) {e before} its next [read].

    [from] (default 0) is the position of the first item to read.
    @raise Invalid_argument if [batch < 1] or [from < 0]. *)

val read : t -> Value.t option
(** Next item, [None] at end of stream.  Issues a [Transfer] when the
    local batch buffer is empty.  Blocks; fiber context only.
    @raise Eden_kernel.Kernel.Eden_error on a protocol refusal (no such
    eject / channel), as when presenting a channel identifier one was
    never given. *)

val iter : (Value.t -> unit) -> t -> unit
(** [read] until end of stream. *)

val transfers_issued : t -> int
(** Local count of [Transfer] invocations this connection has made
    (resumable: successful round trips). *)

val pos : t -> int
(** Stream position of the next item [read] returns. *)

val buffered : t -> int
(** Items fetched but not yet read; 0 at batch boundaries. *)

val controller : t -> Eden_flowctl.Aimd.t option
(** The adaptive controller of a windowed or resumable connection, for
    stages that feed it backpressure signals; [None] in sync or
    fixed-batch mode. *)

val credit : t -> Eden_flowctl.Credit.t option
(** The live credit window of a windowed connection ([None] in sync
    mode) — what a tenant registry binds a read capability to, so that
    revocation can reclaim the outstanding credits
    ({!Eden_flowctl.Credit.revoke}) instead of leaking them. *)
