(** Eject constructors for pipeline stages in every discipline.

    The same generator / {!Transform.t} / consumer can be wrapped as:

    - {b read-only} stages ([source_ro], [filter_ro], [sink_ro]):
      filters perform active input and passive output; the sink pumps
      (Figure 2 of the paper);
    - {b write-only} stages ([source_wo], [filter_wo], [sink_wo]): the
      exact dual; the source pumps (§5);
    - {b conventional} stages connected by [pipe] passive-buffer
      Ejects (Figure 1): a [source_wo] actively writing into the first
      pipe, [filter_active]s, and a [sink_ro] actively reading the
      last.

    Stages with a pumping worker and no servable operations (read-only
    sinks, write-only sources, every conventional stage) are started
    with {!Eden_kernel.Kernel.poke}; everything else activates on its
    first incoming invocation, which is what makes a read-only pipeline
    demand-driven end to end.

    [capacity] is the per-stage anticipation buffer (see {!Port});
    [batch] the per-invocation item count (see {!Pull}/{!Push}).  Both
    default to the paper's counting regime: fully lazy, one datum per
    invocation.

    [flowctl] (on stages with an active connection) supersedes [batch]
    with a full {!Eden_flowctl.Flowctl} configuration: credit-windowed
    pipelined exchanges and, under [Adaptive], AIMD-sized batches.
    Stages with adaptive pulls also feed the controller a backpressure
    signal — virtual time spent blocked emitting downstream shrinks the
    upstream batch.  Passive endpoints (ports, intakes, pipes) need no
    configuration: they serve whatever form the client sends. *)

module Value = Eden_kernel.Value
module Kernel = Eden_kernel.Kernel
module Uid = Eden_kernel.Uid

type gen = unit -> Value.t option
(** Item generator for sources; [None] ends the stream. *)

type consume = Value.t -> unit
(** Item consumer for sinks; runs inside the sink Eject. *)

(** Every constructor takes [?flow]: a {!Eden_obs.Obs.Flow.stage}
    (from [Obs.register_stage]) that the stage feeds with items
    in/out, protocol batches, occupancy, and virtual-time stall on its
    blocking reads and writes; wait times also land in the
    ["stage.<label>.wait"] histogram of the kernel's collector.
    Omitted, a stage is entirely unmetered.  {!Eden_par.Topo}'s
    builder registers one flow per stage automatically. *)

(** {1 Read-only discipline} *)

val source_ro :
  Kernel.t ->
  ?node:Eden_net.Net.node_id ->
  ?name:string ->
  ?capacity:int ->
  ?flow:Eden_obs.Obs.Flow.stage ->
  gen ->
  Uid.t
(** Passive output on {!Channel.output}; produces nothing until asked
    (capacity 0) or runs [capacity] items ahead. *)

val filter_ro :
  Kernel.t ->
  ?node:Eden_net.Net.node_id ->
  ?name:string ->
  ?capacity:int ->
  ?batch:int ->
  ?flowctl:Eden_flowctl.Flowctl.t ->
  ?flow:Eden_obs.Obs.Flow.stage ->
  upstream:Uid.t ->
  ?upstream_channel:Channel.t ->
  Transform.t ->
  Uid.t
(** Active input from [upstream], passive output on {!Channel.output}. *)

val sink_ro :
  Kernel.t ->
  ?node:Eden_net.Net.node_id ->
  ?name:string ->
  ?batch:int ->
  ?flowctl:Eden_flowctl.Flowctl.t ->
  ?flow:Eden_obs.Obs.Flow.stage ->
  upstream:Uid.t ->
  ?upstream_channel:Channel.t ->
  ?on_done:(unit -> unit) ->
  consume ->
  Uid.t
(** The pump: actively reads [upstream] to exhaustion, then calls
    [on_done].  Start it with {!Kernel.poke}. *)

(** {1 Write-only discipline} *)

val source_wo :
  Kernel.t ->
  ?node:Eden_net.Net.node_id ->
  ?name:string ->
  ?batch:int ->
  ?flowctl:Eden_flowctl.Flowctl.t ->
  ?flow:Eden_obs.Obs.Flow.stage ->
  downstream:Uid.t ->
  ?downstream_channel:Channel.t ->
  gen ->
  Uid.t
(** The pump: actively deposits into [downstream] until the generator
    ends.  Start it with {!Kernel.poke}. *)

val filter_wo :
  Kernel.t ->
  ?node:Eden_net.Net.node_id ->
  ?name:string ->
  ?capacity:int ->
  ?batch:int ->
  ?flowctl:Eden_flowctl.Flowctl.t ->
  ?flow:Eden_obs.Obs.Flow.stage ->
  downstream:Uid.t ->
  ?downstream_channel:Channel.t ->
  Transform.t ->
  Uid.t
(** Passive input on {!Channel.output}, active output to
    [downstream]. *)

val sink_wo :
  Kernel.t ->
  ?node:Eden_net.Net.node_id ->
  ?name:string ->
  ?capacity:int ->
  ?flow:Eden_obs.Obs.Flow.stage ->
  ?on_done:(unit -> unit) ->
  consume ->
  Uid.t
(** Passive input on {!Channel.output}; consumes as deposits arrive. *)

(** {1 Conventional discipline} *)

val pipe :
  Kernel.t ->
  ?node:Eden_net.Net.node_id ->
  ?name:string ->
  ?capacity:int ->
  ?flow:Eden_obs.Obs.Flow.stage ->
  unit ->
  Uid.t
(** A passive buffer (Unix pipe): accepts [Deposit] and serves
    [Transfer] on {!Channel.output}.  [capacity] defaults to 4. *)

val filter_active :
  Kernel.t ->
  ?node:Eden_net.Net.node_id ->
  ?name:string ->
  ?batch:int ->
  ?flowctl:Eden_flowctl.Flowctl.t ->
  ?flow:Eden_obs.Obs.Flow.stage ->
  upstream:Uid.t ->
  downstream:Uid.t ->
  Transform.t ->
  Uid.t
(** Active input {e and} active output — the Unix filter that both
    transforms and pumps (§3).  Start it with {!Kernel.poke}. *)

(** {1 Custom stages} *)

val custom : Kernel.t -> ?node:Eden_net.Net.node_id -> name:string -> Kernel.behaviour -> Uid.t
(** Full control for impure stages (multiple channels, report streams,
    protocol extensions); a thin veneer over {!Kernel.create_eject} with
    the concurrent dispatch the stream handlers require. *)
