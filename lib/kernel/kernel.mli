(** The Eden kernel simulation: Ejects and invocations.

    An Eject (§1 of the paper) is an active entity with a unique
    unforgeable {!Uid.t}, a concrete type (a dispatch table of named
    operations), its own processes (fibers), and the ability to
    [checkpoint] a passive representation to stable storage.  Ejects may
    be passive; invoking a passive Eject activates it, reconstructing
    its state from its last checkpoint.

    Invocation is a location-independent request/reply: the invoker
    names a UID and an operation, the kernel routes the request over the
    simulated network, the target's coordinator process dispatches it,
    and the reply travels back.  The identity of the invoker is {e
    deliberately not} made available to the handler — the paper (§5)
    argues the effect of an invocation must depend only on its
    parameters, and the channel-capability security experiment depends
    on this.

    The kernel meters every invocation; those counters are the
    instrument behind each reproduced table. *)

exception Eden_error of string
(** Raised by operation handlers to signal a clean application-level
    error; delivered to the invoker as [Error message]. *)

type t
type ctx
(** Capability handed to an Eject's own code: identifies the Eject and
    lets it invoke others, spawn worker processes, checkpoint,
    deactivate or destroy itself. *)

type reply = (Value.t, string) result

type handler = Value.t -> Value.t
(** Operation implementation: argument in, reply out.  May block (invoke
    other Ejects, wait on internal channels); raise {!Eden_error} for a
    clean error reply. *)

type behaviour = ctx -> passive:Value.t option -> (string * handler) list
(** The Eden "type-code".  Called at each activation with the latest
    checkpointed passive representation (or [None] on first activation /
    after a crash that preceded any checkpoint); returns the dispatch
    table.  May call {!spawn_worker} to start background processes. *)

(** Whether an Eject serves invocations one at a time (default —
    deterministic, and the right semantics for stream Ejects) or spawns
    a worker per invocation. *)
type dispatch = Serial | Concurrent

(** {1 Kernel lifecycle} *)

val create : ?seed:int64 -> ?latency:Eden_net.Net.latency -> ?nodes:string list -> unit -> t
(** A kernel with its own scheduler, network and observability
    collector (with {!Eden_obs.Obs.create}'s default span capacity).
    [nodes] (default one node ["node-0"]) are created in order; node 0
    also hosts external drivers. *)

val sched : t -> Eden_sched.Sched.t
val net : t -> Eden_net.Net.t
val nodes : t -> Eden_net.Net.node_id list

val obs : t -> Eden_obs.Obs.t
(** The kernel's observability collector: histograms are always fed
    (round-trip latency per op as ["rtt.<op>"], network delay/size);
    spans are recorded only after [Obs.enable_spans]. *)

val run : t -> unit
(** Drives the simulation to quiescence and re-raises the first fiber
    failure, if any. *)

val run_driver : t -> (ctx -> unit) -> unit
(** Spawns [f] as a driver fiber on node 0 with an external context,
    then {!run}s to quiescence.  The standard way to execute an
    experiment. *)

val spawn_driver : t -> ?name:string -> (ctx -> unit) -> unit
(** Registers [f] as a driver fiber without running the scheduler —
    the building block behind {!run_driver}, for callers that drive the
    scheduler themselves (several drivers, interleaved [step]s, or the
    parallel runtime's per-shard pump loop). *)

(** {1 Ejects} *)

val create_eject :
  t ->
  ?node:Eden_net.Net.node_id ->
  ?dispatch:dispatch ->
  type_name:string ->
  behaviour ->
  Uid.t
(** Registers a new (initially passive) Eject and returns its UID. *)

val exists : t -> Uid.t -> bool
val is_active : t -> Uid.t -> bool
val live_ejects : t -> int
(** Created and not destroyed. *)

val poke : t -> Uid.t -> unit
(** Management-plane activation: ensures the Eject is active (its
    behaviour installed, its workers running) without sending it an
    invocation.  Used to start the pumping end of a pipeline — the
    paper's "connecting a terminal to a filter is rather like starting a
    pump" — without perturbing the data-plane invocation counts that the
    experiments measure.  @raise Invalid_argument on unknown or
    destroyed UIDs. *)

val crash : t -> Uid.t -> unit
(** Simulated failure: cancels the Eject's processes, discards volatile
    state and pending messages.  The Eject is passive afterwards and
    reactivates from its last checkpoint on the next invocation.
    No-op on unknown/destroyed UIDs. *)

val checkpoints : t -> Uid.t -> (float * Value.t) list
(** All checkpointed passive representations, newest first, with their
    virtual timestamps. *)

val crash_count : t -> Uid.t -> int
(** How many times the Eject has been [crash]ed.  Readable without
    invoking it (and so without reactivating it) — a supervisor's
    crash-detection probe.  0 for unknown UIDs. *)

val received : t -> Uid.t -> int
(** Invocations the Eject's coordinator has dispatched ([Invoke]
    messages only — internal stop signals are not traffic).  0 for
    unknown UIDs. *)

val worker_count : t -> Uid.t -> int
(** Live fibers (coordinator + workers) currently owned by the Eject;
    0 when passive, destroyed or unknown.  Finished workers are pruned
    eagerly. *)

val owner_of_fiber : t -> Eden_sched.Sched.fiber_id -> Uid.t option
(** Which Eject a live fiber belongs to; [None] for driver fibers and
    fibers that have finished.  The structured replacement for
    matching fiber names against Eject types. *)

type guard =
  dst:Uid.t ->
  op:string ->
  Value.t ->
  (Value.t * (reply -> unit) option, string) result
(** Destination-side admission control, the hook a tenant registry
    installs (DESIGN.md §16).  Runs at dispatch — after {!Estore}
    verified the destination UID, before the coordinator sees the
    invocation, and before a passive Eject would be activated, so a
    refused invocation cannot wake a dormant victim.  [Error msg]
    refuses: the invoker gets [Error msg] as its reply (metered and
    traced like any reply) and the handler never runs.  [Ok (arg',
    done_cb)] admits, dispatching [arg'] in place of the original
    argument — this is where a capability channel id is rewritten to
    the private underlying channel — and, when [done_cb] is [Some f],
    runs [f reply] the moment the handler replies (accounting for
    outstanding demand).  The guard never learns the invoker's
    identity: per the paper (§5) handlers cannot either, so
    authentication rides in the argument (session tokens), not in
    ambient kernel state. *)

val set_guard : t -> guard option -> unit
(** Install or remove the admission guard ([None] — the default —
    admits everything, costs nothing). *)

val set_quiesced : t -> Uid.t -> bool -> unit
(** Mark an Eject as deliberately idle — draining, fenced or parked by
    an elastic reconfiguration.  Stall detectors
    ({!Eden_transput.Pipeline.stall_report}) skip fibers owned by quiesced
    Ejects, so a stage that is {e supposed} to sit blocked while its
    channels are handed elsewhere does not read as a hang.  Cleared by
    {!crash}: a crashed stage is no longer deliberately anything.
    No-op on unknown/destroyed UIDs. *)

val is_quiesced : t -> Uid.t -> bool
(** Whether {!set_quiesced} is in effect; [false] for unknown or
    destroyed UIDs. *)

val with_transport_wait : ctx -> (unit -> 'a) -> 'a
(** Run [f] with the calling Eject marked as blocked on transport — a
    socket round-trip to a remote shard is in flight on its behalf.
    Stall detectors treat this like {!set_quiesced}: the Eject's
    blocked fibers are expected, not stalled.  Counted (nested waits
    stack); cleared on return, on raise, and by {!crash}.  No-op from
    a driver context. *)

val in_transport_wait : t -> Uid.t -> bool
(** Whether any {!with_transport_wait} is in flight for this Eject;
    [false] for unknown or destroyed UIDs. *)

(** {1 Invoking (from Eject code or drivers)} *)

val invoke : ctx -> Uid.t -> op:string -> Value.t -> reply
(** Synchronous invocation; blocks the calling fiber for the full
    request/reply round trip. *)

val invoke_async : ctx -> Uid.t -> op:string -> Value.t -> reply Eden_sched.Ivar.t
(** The sending Eject is free to perform other tasks (§1); read the ivar
    when the reply is needed. *)

val invoke_timeout : ctx -> Uid.t -> op:string -> Value.t -> timeout:float -> reply option
(** [None] if no reply arrives in the given virtual-time window (lost
    message, crashed or partitioned target).  On timeout the reply slot
    is sealed: a reply arriving later is discarded rather than left
    filling an ivar nobody reads, and the abandoned waiter is removed
    from the blocked-fiber report. *)

val timeouts : t -> int
(** Total [invoke_timeout] calls that expired without a reply. *)

val call : ctx -> Uid.t -> op:string -> Value.t -> Value.t
(** [invoke] that raises {!Eden_error} on an [Error] reply.  The usual
    form inside protocol code. *)

val with_span : ctx -> name:string -> (unit -> 'a) -> 'a
(** Runs [f] under a user-level span of category ["user"] bound to the
    current fiber, so invocations issued inside become its children in
    the exported invocation tree.  A no-op (beyond calling [f]) when
    spans are disabled or outside a fiber. *)

(** {1 Eject self-operations (inside handlers / workers)} *)

val self : ctx -> Uid.t
val kernel : ctx -> t

val spawn_worker : ctx -> ?name:string -> (unit -> unit) -> unit
(** A background process belonging to this Eject; cancelled when the
    Eject deactivates, is destroyed, or crashes. *)

val checkpoint : ctx -> Value.t -> unit
(** Writes a passive representation to stable storage (§1); survives
    [crash].  Values may carry UIDs, so capabilities survive recovery
    without ever being exposed as forgeable strings. *)

val mint : ctx -> Uid.t
(** A fresh unforgeable UID that names no Eject — a capability token,
    e.g. a secure channel identifier (§5). *)

val deactivate : ctx -> unit
(** Graceful self-deactivation after the current invocation completes.
    State is rebuilt from the last checkpoint at next activation. *)

val destroy : ctx -> unit
(** Self-destruction, like the bootstrap [UnixFile] Ejects that
    deactivate without ever checkpointing and disappear (§7).  Later
    invocations get [Error "no such eject"]. *)

(** {1 Metering} *)

module Meter : sig
  type snapshot = {
    invocations : int;  (** invocations issued *)
    replies : int;  (** replies sent by handlers *)
    activations : int;
    ejects_created : int;
    ejects_live : int;
    crashes : int;
    timeouts : int;  (** [invoke_timeout] expiries *)
    net : Eden_net.Net.meter;
  }

  val snapshot : t -> snapshot
  val diff : snapshot -> snapshot -> snapshot
  (** Counter-wise subtraction (for [ejects_live], the later value is
      kept: it is a gauge, not a counter). *)

  val zero : snapshot

  val add : snapshot -> snapshot -> snapshot
  (** Counter-wise sum, for aggregating the meters of disjoint kernels
      (e.g. the parallel runtime's per-domain shards).  [ejects_live]
      sums too: the kernels share no Ejects. *)

  val pp : Format.formatter -> snapshot -> unit
end

val op_counts : t -> (string * int) list
(** Invocations issued per operation name, sorted by name. *)
