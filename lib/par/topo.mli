(** Topology as data: one checked description, one runner.

    Black's figures differ only in which primitive each edge uses —
    [Transfer] on a read-only edge, [Deposit] on a write-only edge, both
    through a passive pipe in Figure 1 — so a topology is a first-order
    value: stages (role, shard, capacity, batch), edges (discipline,
    channel), a data plane and a flow-control configuration.  {!run}
    checks the value, builds it on a fresh {!Cluster} with
    {!Cluster.proxy} bridges on every shard-crossing edge, drives it to
    quiescence and reports one {!outcome} — under [Deterministic] as the
    in-process oracle, under [Parallel] and [Wire] as the runs the
    equivalence suites hold byte-identical to it.

    The paper's shapes are constructors ({!f1} … {!window}); any other
    topology is one more value, not one more runner. *)

(** {1 The value} *)

type plane =
  | Boxed  (** one [Value.Str] line per item: the paper's counting regime, the oracle *)
  | Chunked of { cut : int; chunk_bytes : int }
      (** flat [Value.Chunk] byte slices cut every [cut] bytes (line-misaligned);
          [chunk_bytes] sizes the shapes' {!Eden_flowctl.Flowctl.chunked}
          push coalescing *)

(** What a source generates. *)
type doc =
  | Lines of int  (** [n] lines ["Line-000  the Quick brown Fox   "] … *)
  | Lines_then_drop of int  (** the same, then ["drop this line"] *)
  | Branch_lines of { branch : int; items : int }
      (** per-branch payload lines; on the chunked plane the cut size
          also varies with [branch], so chunk boundaries differ per branch *)
  | Ints of { branch : int; items : int }
      (** [Value.Int] items, distinct across branches, on either plane *)

(** A stage's transform, picked per plane from {!Eden_filters.Catalog}. *)
type filter =
  | Trim  (** strip trailing blanks *)
  | Upcase
  | Grep_v of string  (** drop lines containing the pattern *)
  | Identity
  | Burn of int  (** a pure integer spin of this many rounds per [Int] item *)

type role =
  | Source of doc
  | Reporting_source of doc
      (** Figure 4's source: also serves one report line per item *)
  | Filter of filter
  | Progress of int
      (** a reporting filter (§5): passes items through and reports
          ["<name>: n items"] every [n] items, then a final tally *)
  | Pipe  (** a passive buffer, the only stage between two active ends (Figure 1) *)
  | Sink
      (** collects bytes: text as [line ^ "\n"], chunks raw, any other
          value {!Eden_wire.Bin}-encoded *)
  | Window  (** a report window: pulls every watched stream, or accepts deposits *)

type channel = Output | Report

type discipline = Eden_transput.Pipeline.discipline =
  | Read_only  (** the consumer [Transfer]s *)
  | Write_only  (** the producer [Deposit]s *)
  | Conventional
      (** both ends active: legal only into or out of a {!Pipe}, whose
          end is passive *)

type stage = {
  name : string;  (** also the label reports and windows carry *)
  role : role;
  shard : int;
  capacity : int;  (** anticipation buffer, on stages whose constructor takes one *)
  batch : int;  (** items per invocation on active connections *)
}

type edge = {
  src : int;  (** index into [stages] *)
  dst : int;
  discipline : discipline;
  channel : channel;  (** the producer's stream this edge carries *)
}

type t = {
  stages : stage array;  (** declaration order *)
  edges : edge list;
  plane : plane;
  flowctl : Eden_flowctl.Flowctl.t option;
      (** on every active connection whose stage takes one; supersedes [batch] *)
}

(** {1 Checking}

    {!run} checks its input in time linear in stages and edges, before
    {!Cluster.create} — so no leaf process is forked for a bad topology
    — and raises {!Invalid} naming the stage or edge. *)

type error =
  | Bad_size of { what : string; value : int }
      (** non-positive domains, items, batch, window, progress interval;
          negative capacity *)
  | Bad_shard of { stage : string; shard : int; domains : int }
  | No_passive_output of { edge : string }
      (** a pull from a stage that serves no such stream (a sink, a window,
          a report channel of a plain stage) *)
  | No_intake of { edge : string }  (** a push into a source *)
  | Needs_pipe of { edge : string }
      (** a conventional edge with no pipe at either end: active output
          feeding active input *)
  | Fan_out of { edge : string }
      (** naive read-only fan-out (T3): a second consumer of one
          (stage, channel).  A sink on a stage's output plus a window on
          its report channel are two channels, and legal.  Write-only
          fan-in is not checked: a report window takes many writers by
          design. *)
  | Unjoinable of { stage : string; why : string }
      (** a stage no constructor can build from its edges: no input, no
          consumer, passive at both ends, mixed disciplines, a cycle, or
          a sink off shard 0 under [Wire] *)

exception Invalid of error

val error_to_string : error -> string

(** {1 Running} *)

type outcome = {
  sinks : (string * string) list;  (** each sink's bytes, declaration order *)
  chunk_items : int;  (** sink items that arrived as [Value.Chunk] *)
  boxed_items : int;  (** sink items that arrived as anything else *)
  eos : int;  (** end-of-stream marks the sinks saw *)
  reports : (string * string list) list;
      (** window lines per writer label, label-sorted, each in arrival
          order: the deterministic surface, since the interleaving across
          labels depends on scheduling.  A pulling window labels lines
          itself; a deposit window cannot know its writers (§5), so its
          lines are attributed by the ["label: "] prefix reporting stages
          write, and kept whole. *)
  eos_clean : bool;
      (** every sink saw exactly one end-of-stream, last, and every
          window finished *)
  meter : Eden_kernel.Kernel.Meter.snapshot;  (** summed over shards *)
  op_counts : (string * int) list;
  flows : (string * int * int) list;
      (** (label, items in, items out) for every stage built from
          {!Eden_transput.Stage} — each registers one flow meter, as
          {!Eden_transput.Pipeline.build} does *)
  histograms : (string * Eden_obs.Obs.Histogram.t) list;
      (** merged across shards; timing-dependent, not part of any
          equivalence contract *)
  cross_messages : int;
  makespans : float array;  (** final virtual time per shard *)
}

val consumed : outcome -> int
(** Items across all sinks. *)

val run : Cluster.mode -> ?seed:int64 -> domains:int -> t -> outcome
(** Builds [t] on a fresh cluster of [domains] shards and drives it to
    quiescence.  Build order: a stage is created after every stage it
    pulls from (read-only: upstream first) and every stage it deposits
    into (write-only: downstream first), ties by declaration order; each
    pulling or pushing client gets its own proxy per edge.  Stages with
    no passive end are then poked in declaration order.
    @raise Invalid on an ill-formed topology (see {!error}). *)

(** {1 The paper's shapes}

    Chain stage [s] lands on shard [1 + s mod (domains - 1)] (0 with one
    domain); sinks, pipes and windows on shard 0, so every chain tail
    crosses the fabric.  Each shape's flow control is
    {!Eden_flowctl.Flowctl.chunked} on the chunked plane and none on the
    boxed one, unless stated. *)

val chunked : ?cut:int -> ?chunk_bytes:int -> unit -> plane
(** [cut] defaults to 113 (deliberately line-misaligned), [chunk_bytes]
    to 4096.  @raise Invalid_argument when [cut < 1]. *)

val f1 : ?plane:plane -> ?capacity:int -> domains:int -> filters:int -> items:int -> unit -> t
(** Figure 1 conventional pipeline: active source, filters (alternating
    trim/upcase) and sink connected through passive pipes (capacity 4)
    on shard 0, so every hop crosses the fabric twice. *)

val f2 :
  ?plane:plane ->
  ?filter:(int -> filter) ->
  ?batch:int ->
  ?capacity:int ->
  domains:int ->
  filters:int ->
  items:int ->
  unit ->
  t
(** Figure 2 read-only pipeline: source, [filters] filters ([filter j]
    for j = 1..filters, alternating trim/upcase by default) and a pumping
    sink.  [batch] defaults to 1, [capacity] to 3. *)

val f3 : ?plane:plane -> ?capacity:int -> domains:int -> items:int -> unit -> t
(** §5 write-only pipeline with a report stream: source → reporting F1
    (progress every 4) → F2 (grep -v "drop") → F3 (upcase) → [sink];
    F1's reports deposit into their own sink, [repsink].  Capacity 4. *)

val f4 : ?plane:plane -> ?capacity:int -> domains:int -> items:int -> unit -> t
(** Figure 4 read-only report topology: the same chain pulled, a byte
    [sink], and a [window] watching F1's report channel.  Capacity 3. *)

val f4_terminal : domains:int -> items:int -> unit -> t
(** Figure 4 as drawn: a reporting source, the chain at capacity 0, a
    [terminal], and a window watching both the source's and F1's report
    channels.  Boxed. *)

(** The wide fan-in behind P1: [branches] read-only chains of [Ints]
    through [filters] [Burn work] filters, every sink on shard 0 and
    branch [b]'s producers on chain shard [b], so the only
    cross-shard traffic is the sinks' pulls. *)
type spec = {
  branches : int;
  filters : int;  (** work filters per branch (may be 0) *)
  items : int;  (** items per branch *)
  batch : int;  (** filter and sink transfer batch *)
  capacity : int;  (** anticipation buffer per producing stage *)
  work : int;  (** burn rounds per item per filter *)
  flowctl : Eden_flowctl.Flowctl.t option;
      (** each stage gets its own controller; adaptive trajectories
          depend on scheduling, so only [Fixed] configs keep the
          parallel-vs-deterministic contract *)
}

val default : spec
(** 8 branches × 2 filters × 64 items, batch 4, capacity 4, 20000 rounds,
    no flow control. *)

val fanin : domains:int -> spec -> t
(** Boxed.  @raise Invalid on non-positive [branches]. *)

val fanin_bytes : domains:int -> branches:int -> items:int -> plane:plane -> unit -> t
(** The same fan-in shape carrying [Branch_lines] text through one upcase
    filter per branch, on either plane. *)

val window :
  ?window:int ->
  style:[ `Ro | `Wo ] ->
  plane:plane ->
  domains:int ->
  producers:int ->
  items:int ->
  unit ->
  t
(** The C10M capacity shape: [producers] sources, each through a
    reporting stage named ["p%05d"], main streams into per-producer sinks
    on shard 0, report streams fanned into windows of [window] producers
    each (all of them when omitted).  [`Ro] is Figure 4's arrangement
    (dormant producers, windows and sinks pull); [`Wo] Figure 3's
    (producers deposit into passive windows).
    @raise Invalid on a non-positive [window] or [producers]. *)
