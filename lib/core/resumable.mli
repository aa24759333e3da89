(** Crash-resumable pipeline stages in every discipline.

    The plain {!Stage} builders hold a transform's state in fiber-local
    variables, so a crash loses both the state and the stream position.
    The resumable builders externalise both:

    - a transform is a {!spec} — explicit checkpointable state threaded
      through [step], so the Eject can persist it;
    - a source generator is {e indexed} ([int -> item option]) and must
      be pure, so a restarted producer regenerates exactly the items a
      consumer re-requests;
    - every stage checkpoints [(input position, state, output state,
      done)] at batch boundaries, always {e after} the downstream effect
      of a batch is durable and {e before} the upstream acknowledgement
      that lets the producer discard it.  Replay after a restart is therefore
      exactly-once end to end: duplicated work is deduplicated by
      position, lost work is regenerated deterministically.

    The stages speak the plain protocol plus failure behaviour: they
    serve retaining {!Port} channels, connect resumable {!Pull}s and
    {!Push}es, and admit deposits by {!Intake.admit}.

    Crashed {e passive} stages (read-only sources and filters, pipes,
    write-only filters and sinks) self-heal: the peer's retried
    invocation reactivates them from the checkpoint.  Crashed {e
    pumping} stages (read-only sinks, write-only sources, every
    conventional active stage) receive no invocations and stay down
    until an {!Eden_resil.Supervisor} pokes them — that asymmetry is
    the paper's pump observation resurfacing as a recovery concern.

    Every resumable stage serves a ["Ping"] operation for supervisor
    liveness probes.  [retry] configures every retried exchange, its
    jitter restarting from the client's seed at each activation.
    [flowctl] sizes the per-exchange batch (default one item);
    checkpoints stay at batch boundaries, so exactly-once holds at
    whatever granularity the controller picks. *)

module Value = Eden_kernel.Value
module Kernel = Eden_kernel.Kernel
module Uid = Eden_kernel.Uid
module Retry = Eden_resil.Retry

(** A transform with explicit, checkpointable state. *)
type spec = {
  init : Value.t;
  step : Value.t -> Value.t -> Value.t * Value.t list;
      (** [step state item = (state', outputs)]; must be deterministic. *)
  flush : Value.t -> Value.t list;  (** Tail outputs at end of input. *)
}

val pure_map : (Value.t -> Value.t) -> spec
val pure_filter : (Value.t -> bool) -> spec

type gen = int -> Value.t option
(** Indexed generator: [gen i] is item [i], [None] at end of stream.
    Must be pure — it is re-evaluated during replay. *)

(** {1 Read-only discipline} *)

val source_ro :
  Kernel.t ->
  ?node:Eden_net.Net.node_id ->
  ?name:string ->
  ?capacity:int ->
  gen ->
  Uid.t
(** Serves a retaining {!Port} channel, checkpointing after every
    item. *)

val filter_ro :
  Kernel.t ->
  ?node:Eden_net.Net.node_id ->
  ?name:string ->
  ?capacity:int ->
  ?flowctl:Eden_flowctl.Flowctl.t ->
  retry:Retry.client ->
  upstream:Uid.t ->
  spec ->
  Uid.t

val sink_ro :
  Kernel.t ->
  ?node:Eden_net.Net.node_id ->
  ?name:string ->
  ?flowctl:Eden_flowctl.Flowctl.t ->
  retry:Retry.client ->
  upstream:Uid.t ->
  ?on_done:(unit -> unit) ->
  unit ->
  Uid.t
(** The pump.  Accumulates the stream in its checkpoints (read it back
    with {!sink_output}); [on_done] must be idempotent — a sink
    restarted after completion calls it again. *)

(** {1 Write-only discipline} *)

val source_wo :
  Kernel.t ->
  ?node:Eden_net.Net.node_id ->
  ?name:string ->
  ?flowctl:Eden_flowctl.Flowctl.t ->
  retry:Retry.client ->
  downstream:Uid.t ->
  gen ->
  Uid.t
(** The pump. *)

val filter_wo :
  Kernel.t ->
  ?node:Eden_net.Net.node_id ->
  ?name:string ->
  ?flowctl:Eden_flowctl.Flowctl.t ->
  retry:Retry.client ->
  downstream:Uid.t ->
  spec ->
  Uid.t

val sink_wo :
  Kernel.t ->
  ?node:Eden_net.Net.node_id ->
  ?name:string ->
  ?on_done:(unit -> unit) ->
  unit ->
  Uid.t

(** {1 Conventional discipline}

    A conventional pipeline's source is a {!source_wo} and its sink a
    {!sink_ro}: both ends are active exactly as in those disciplines. *)

val pipe :
  Kernel.t -> ?node:Eden_net.Net.node_id -> ?name:string -> ?capacity:int -> unit -> Uid.t
(** A resumable passive buffer: deduplicating [Deposit] in, replayable
    [Transfer] out, whole buffer checkpointed per deposit. *)

val filter_active :
  Kernel.t ->
  ?node:Eden_net.Net.node_id ->
  ?name:string ->
  ?flowctl:Eden_flowctl.Flowctl.t ->
  retry:Retry.client ->
  upstream:Uid.t ->
  downstream:Uid.t ->
  spec ->
  Uid.t
(** Pump: active on both sides. *)

val sink_output : Kernel.t -> Uid.t -> Value.t list option
(** The stream a sink has accumulated, from its latest checkpoint. *)
