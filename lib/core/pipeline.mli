(** Assembling and running whole pipelines, plus the static cost model.

    Given a generator, a list of transforms and a consumer, [build]
    erects the corresponding Ejects under any of the three disciplines;
    [start] pokes the pumping stages; [await] blocks the calling driver
    fiber until the sink has seen end of stream.  [resumable] erects
    the crash-resumable pipeline with the same wiring, and
    [supervise], [crash_at] and [await_timeout] drive chaos runs.

    [predict] is the paper's §4 arithmetic — the claim the benchmarks
    check the metered counts against. *)

module Value = Eden_kernel.Value
module Kernel = Eden_kernel.Kernel
module Uid = Eden_kernel.Uid

type discipline = Read_only | Write_only | Conventional

val discipline_name : discipline -> string
val all_disciplines : discipline list

type t = {
  kernel : Kernel.t;
  discipline : discipline;
  source : Uid.t;
  filters : Uid.t list;
  pipes : Uid.t list;  (** Empty except under [Conventional]. *)
  sink : Uid.t;
  stages : (string * Uid.t) list;  (** Every stage, labelled and ordered like [flows]. *)
  done_ : unit Eden_sched.Ivar.t;  (** Filled when the sink sees end of stream. *)
  flows : (string * Eden_obs.Obs.Flow.stage) list;
      (** One flow meter per stage of a plain pipeline (["source"],
          ["filter-i"], ["pipe-i"], ["sink"]), in display order;
          registered on the kernel's collector.  Empty when resumable. *)
  meter : Eden_resil.Retry.meter;  (** Every resumable stage's retries. *)
}

val build :
  Kernel.t ->
  ?nodes:Eden_net.Net.node_id list ->
  ?capacity:int ->
  ?batch:int ->
  ?flowctl:Eden_flowctl.Flowctl.t ->
  discipline ->
  gen:Stage.gen ->
  filters:Transform.t list ->
  consume:Stage.consume ->
  t
(** [nodes] places consecutive stages round-robin (default: everything
    on the kernel's first node).  [capacity] is each stage's
    anticipation buffer, [batch] the per-invocation item count.
    [flowctl] supersedes [batch] on every active connection with a
    credit-windowed (and optionally adaptive) configuration — see
    {!Stage}; passive endpoints need none. *)

val resumable :
  Kernel.t ->
  ?nodes:Eden_net.Net.node_id list ->
  ?capacity:int ->
  ?batch:int ->
  ?flowctl:Eden_flowctl.Flowctl.t ->
  ?policy:Eden_resil.Retry.policy ->
  seed:int64 ->
  discipline ->
  gen:Resumable.gen ->
  filters:Resumable.spec list ->
  t
(** The crash-resumable pipeline of {!Resumable} stages, placed and
    wired like [build]; read the sink's stream back with [output].
    [flowctl] (default [Fixed batch]) sizes every stage's exchanges,
    each adaptive stage with its own controller.  Stage [i]'s retry
    jitter is seeded with [seed + i] (source 0, sink [n + 1]). *)

val start : t -> unit
(** Pokes the pumping stages: the sink under [Read_only], the source
    under [Write_only], and source, filters and sink under
    [Conventional]. *)

val await : t -> unit
(** Blocks until done; fiber context only. *)

val await_timeout : t -> deadline:float -> bool
(** Waits at most [deadline] virtual time for completion; [false] means
    the pipeline did not finish (a failed chaos run). *)

val output : t -> Value.t list option
(** A resumable pipeline's sink stream, from its latest checkpoint. *)

val supervise : ?ping:bool -> t -> Eden_resil.Supervisor.t -> unit
(** Watches every stage. *)

val crash_at : t -> Uid.t -> float -> unit
(** Schedules a {!Eden_kernel.Kernel.crash} of one stage at an absolute
    virtual time; call before running. *)

val run : t -> unit
(** [start] then [await]. *)

val entity_count : t -> int
(** Ejects this pipeline comprises (stages + pipes). *)

(** {1 Stall diagnosis}

    When a pipeline wedges (a stage crashed, a message was lost and
    nobody retries), the scheduler knows only that fibers are parked.
    These helpers turn that raw report into an actionable diagnosis:
    which stage each blocked fiber belongs to and what it is waiting
    for. *)

type stall = {
  fiber : string;  (** Blocked fiber's name. *)
  reason : string;  (** What it is parked on, from {!Eden_sched.Sched.blocked}. *)
  stage : string option;  (** Pipeline stage it was attributed to, if any. *)
}

type diagnosis = { at : float;  (** Virtual time of the report. *) stalls : stall list }

val stall_report :
  ?include_quiesced:bool ->
  ?include_transport:bool ->
  Kernel.t ->
  stages:(string * Uid.t) list ->
  stall list
(** Attributes every currently blocked fiber to one of the labelled
    stages via the kernel's fiber-ownership table (an exact UID
    match — fiber names are display-only).  Usable outside
    [Pipeline.t] (e.g. for hand-built stage graphs).

    Fibers owned by {!Kernel.set_quiesced} Ejects — stages deliberately
    idled by an elastic drain or park — are omitted unless
    [include_quiesced] is [true] (default [false]): a quiesced stage
    blocking on input is expected behaviour, not a stall.  Likewise,
    fibers owned by Ejects inside {!Kernel.with_transport_wait} — a
    socket round-trip to a remote shard in flight — are omitted unless
    [include_transport] is [true]: a stage waiting on the wire is
    making progress elsewhere, not stalled. *)

val diagnose : t -> diagnosis option
(** [None] once the pipeline has completed; otherwise the current
    blocked-fiber attribution.  Meaningful when called after [Sched.run]
    has quiesced with [done_] unfilled — everything still blocked then
    is a genuine stall, not transient backpressure. *)

type prediction = { entities : int; invocations_per_datum : int }

val predict : discipline -> n_filters:int -> prediction
(** §4: read-only and write-only move one datum end to end in [n+1]
    invocations with [n+2] Ejects; the conventional arrangement needs
    [2n+2] invocations and [2n+3] Ejects ([n+1] of them pipes). *)
