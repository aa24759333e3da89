(** Elastic pipeline stage: autoscaling replicas with exactly-once
    drain/handoff under crashes.

    One logical stage is widened into a fleet of replica Ejects behind a
    router.  Work is keyed: [classify] maps each item to a channel, and
    a channel is {e sticky} — all of its items flow to one replica in
    order, so per-channel FIFO survives any fleet width.  The fleet is
    sized by the generalized AIMD controller from {!Eden_flowctl.Aimd}
    driven by backlog occupancy watermarks; a floor of 0 gives
    scale-to-zero, with forced scale-from-zero when work arrives.

    Exactly-once across reconfiguration rests on three pieces of
    arithmetic:

    - The router→replica link acknowledges only {e durable} (replica
      checkpointed) positions, so the router's in-flight window
      [\[base, next)] is exactly what a crash or handoff can lose — and
      the router retains it for replay, in the same
      {!Eden_transput.Window} a resumable [Push] keeps.  Unlike a
      resumable [Push], the link treats short acknowledgements as the
      steady state (checkpoints are K-amortized), not a replay
      signal.
    - Drain is a fenced barrier: under the router lock the victim's
      channels stop routing, a [Sync] forces flush + checkpoint, and
      ownership is handed to survivors from the durable state plus the
      retained window.  A replica that crashes {e during} its own drain
      is reactivated from its checkpoint by the retried [Sync] itself
      and simply reports a lower durable position — the two paths
      converge.
    - Replica outputs carry per-channel output positions through a sink
      turnstile that admits each position exactly once: replayed windows
      deduplicate, and a genuinely lost window surfaces as a gap
      violation instead of silent data loss.

    Violations (order, gap, duplicate-state) are {e recorded}, never
    raised, so exploration schedules always run to quiescence; assert on
    {!violations} afterwards. *)

module Value = Eden_kernel.Value
module Kernel = Eden_kernel.Kernel
module Uid = Eden_kernel.Uid
module Aimd = Eden_flowctl.Aimd
module Supervisor = Eden_resil.Supervisor

type spec = {
  init : Value.t;  (** Per-channel initial state. *)
  step : Value.t -> Value.t -> Value.t * Value.t list;
      (** [step state item] is the pure per-channel transform: new state
          plus emitted outputs.  Determinism is required for replay. *)
}

type defect = Drain_skips_checkpoint
    (** Calibration mutant: [Sync] flushes outputs and replies with the
        in-memory position {e without} checkpointing.  The router then
        releases an in-flight window that is not durable, so a handoff
        resumes from a stale checkpoint — input-order and output-gap
        violations follow unless the drain happens to land exactly on a
        checkpoint boundary (which is why FIFO stays green). *)

type params = {
  tick : float;  (** Manager period: scaling, crash sweep, adoption. *)
  checkpoint_every : int;  (** Replica checkpoint amortization K (entries). *)
  capacity_per_replica : int;  (** Backlog a replica is sized to absorb. *)
  auto : bool;  (** Run the scaler on each tick. *)
  ctrl : Aimd.params;  (** Fleet-size controller; [min_batch] may be 0. *)
}

val default_ctrl : Aimd.params
(** Clamp 0‥8, +1 / ×0.5, watermarks 0.25 / 0.75. *)

val params :
  ?tick:float ->
  ?checkpoint_every:int ->
  ?capacity_per_replica:int ->
  ?auto:bool ->
  ?ctrl:Aimd.params ->
  unit ->
  params

type t

val create :
  Kernel.t ->
  ?node:Eden_net.Net.node_id ->
  ?defect:defect ->
  ?supervise:Supervisor.policy ->
  ?on_output:(int -> Value.t -> unit) ->
  classify:(Value.t -> int) ->
  spec:spec ->
  params ->
  t
(** Creates router and sink Ejects plus [Aimd.current] initial replicas
    (the controller floor; 0 under scale-to-zero).  [supervise] creates
    an internal {!Supervisor} watching every replica; its give-ups
    become involuntary drains (adoption) on the next manager tick.
    [on_output] fires once per admitted output, in turnstile order —
    the latency-stamp hook for benchmarks.  [node] places router, sink
    and supervisor; replicas round-robin across all kernel nodes. *)

val start : t -> unit
(** Registers the manager driver fiber (and starts the supervisor).
    Call before [Kernel.run] / [Sched.run]. *)

val router : t -> Uid.t
(** Deposit endpoint for upstream producers (a resumable
    {!Eden_transput.Push} connects to it; seq-stamped, deduplicating by
    {!Eden_transput.Intake.admit}, [eos] honoured). *)

val supervisor : t -> Supervisor.t option

(** {1 Completion} *)

val await : t -> unit
(** Blocks until end-of-stream has fully drained through the sink. *)

val await_timeout : t -> timeout:float -> bool
(** Polling variant for runs that may legitimately wedge (mutants under
    hostile schedules); [false] on timeout.  Always {!stop} after a
    [false] so tick timers quiesce. *)

val stop : t -> unit
(** Stops the manager loop and supervisor after at most one more tick. *)

(** {1 Manual reconfiguration} — fiber context; used by checkers and
    benchmarks to force schedules the auto scaler would not take. *)

val scale_to : Kernel.ctx -> t -> int -> unit
(** Grow or drain to exactly [n] live replicas, synchronously. *)

val drain_one : Kernel.ctx -> t -> bool
(** Voluntarily drain the least-loaded replica; [false] if none live. *)

val adopt : Kernel.ctx -> t -> Uid.t -> bool
(** Involuntary-drain a replica as if its supervisor gave up on it:
    hand its channels to survivors from its last checkpoint. *)

val replay_all : Kernel.ctx -> t -> unit
(** Rewind every link to its durable base and retransmit the in-flight
    windows — a duplicate-delivery storm the turnstiles must absorb. *)

(** {1 Status} *)

val live_replicas : t -> int
val replicas_spawned : t -> int
val max_live : t -> int

val replica_seconds : t -> float
(** ∫ live·dt of virtual time — the provisioning cost axis of E1. *)

val violations : t -> string list
(** Order/gap/duplicate findings, oldest first.  Empty on a correct
    implementation under {e every} schedule. *)

val outputs : t -> (int * Value.t list) list
(** Admitted outputs per channel, in emission order, sorted by channel. *)

val assignments : t -> (int * string) list
(** channel → replica label, sorted. *)

val parked : t -> int
(** Channels currently owned by no replica. *)

val backlog : t -> int
(** Undelivered entries across all links and parked backlogs. *)

val replica_uids : t -> (string * Uid.t) list
(** Live and draining replicas, spawn order — crash targets for tests. *)

val windows : t -> (string * int * int * int) list
(** Per-link [(label, base, sent, next)] — the durable, transmitted and
    append positions.  Debugging aid for wedged schedules. *)
