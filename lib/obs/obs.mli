(** Observability: causal spans, log-bucketed histograms, per-stage
    flow meters, and trace export.

    One collector ([t]) is owned by each kernel instance and threaded
    (as an optional dependency) into the network and the transput
    pipeline machinery.  The library speaks only ints, floats and
    strings so it sits below every other layer:

    - {b spans} record causality: each invocation opens a span whose
      parent is the span of the handler that issued it, so a pipeline
      run yields an invocation tree exportable as JSONL or Chrome
      [trace_event] JSON.
    - {b histograms} are log-bucketed (geometric buckets) latency /
      size distributions with cheap p50/p90/p99 queries.
    - {b flow meters} count items, batches, occupancy and stall time
      per pipeline stage, replacing string-matching stall heuristics
      with structured registration. *)

module Histogram : sig
  type t

  val create : ?lo:float -> ?growth:float -> unit -> t
  (** [create ~lo ~growth ()] makes an empty histogram whose bucket 0
      holds [\[0, lo)] and whose bucket [i >= 1] holds
      [\[lo*growth^(i-1), lo*growth^i)].  Defaults: [lo = 1e-3],
      [growth = 2.0].  @raise Invalid_argument on non-positive [lo] or
      [growth <= 1]. *)

  val add : t -> float -> unit

  val merge : into:t -> t -> unit
  (** [merge ~into src] folds [src]'s samples into [into] (bucket-exact;
      min/max/mean preserved).  The way per-domain histograms are
      aggregated after a parallel run joins.  @raise Invalid_argument
      when the two histograms were created with different [lo]/[growth]
      geometry. *)

  val count : t -> int
  val mean : t -> float

  val min_value : t -> float
  (** Exact observed minimum; [0.0] when empty. *)

  val max_value : t -> float
  (** Exact observed maximum; [0.0] when empty. *)

  val percentile : t -> float -> float
  (** [percentile t p] for [p] in [\[0,1\]]: upper bound of the bucket
      holding the rank-[ceil p*n] sample, clamped to the observed
      min/max.  [0.0] when empty. *)

  val pp : Format.formatter -> t -> unit
end

module Span : sig
  type t = {
    id : int;
    parent : int option;
    name : string;
    cat : string;
    start : float;
    mutable stop : float; (* nan while open *)
    mutable ok : bool;
    attrs : (string * string) list;
  }

  val is_open : t -> bool
  val duration : t -> float
end

module Flow : sig
  type stage = {
    label : string;
    mutable items_in : int;
    mutable items_out : int;
    mutable bytes_in : int;
    mutable bytes_out : int;
    mutable batches : int;
    mutable max_occupancy : int;
    mutable stall_in : float;
    mutable stall_out : float;
  }

  val occupancy : stage -> int
  val note_in : stage -> unit
  val note_out : stage -> unit

  val note_in_n : stage -> int -> unit
  (** Bulk {!note_in}: add [n] items at once (updating
      [max_occupancy] against the post-increment occupancy).  Used by
      gauge-style stages — e.g. a tenant's outstanding-credit gauge,
      where a revocation reclaims a whole window in one step.
      Non-positive [n] is ignored. *)

  val note_out_n : stage -> int -> unit
  (** Bulk {!note_out}; non-positive [n] is ignored. *)

  val note_bytes_in : stage -> int -> unit
  (** Add the marshalled byte size of one consumed item.  Metered
      stages charge [Value.size] per item, so a chunk counts its whole
      payload (plus the 4-byte length prefix) and the meters stay
      truthful when one item is a 64 KiB chunk rather than a boxed
      line.  Non-positive sizes are ignored. *)

  val note_bytes_out : stage -> int -> unit

  val note_batches : stage -> int -> unit
  (** Record the current cumulative batch count for the stage (a
      monotone gauge: the max of all reported values is kept). *)

  val wait_in : stage -> float -> unit
  val wait_out : stage -> float -> unit
  val pp : Format.formatter -> stage -> unit
end

type t

val create : ?span_capacity:int -> unit -> t
(** Completed spans are kept in a ring of [span_capacity] (default
    8192); older spans are evicted and counted in [dropped_spans].
    @raise Invalid_argument if [span_capacity <= 0]. *)

val enable_spans : t -> unit
val disable_spans : t -> unit
val spans_enabled : t -> bool

val span_begin :
  t -> ?parent:int -> ?attrs:(string * string) list -> name:string -> cat:string ->
  at:float -> unit -> int
(** Open a span and return its id.  Callers should guard on
    [spans_enabled] to avoid the bookkeeping cost when tracing is
    off. *)

val span_end : t -> int -> at:float -> ok:bool -> unit
(** Close an open span.  Unknown ids are ignored. *)

val instant :
  t -> ?attrs:(string * string) list -> name:string -> cat:string -> at:float -> unit -> unit
(** Record a zero-duration root event.  No-op when spans are disabled. *)

val spans : t -> Span.t list
(** Completed spans, oldest first. *)

val open_spans : t -> Span.t list
val span_count : t -> int

val dropped_spans : t -> int
(** Completed spans evicted from the ring since creation/[clear_spans]. *)

val clear_spans : t -> unit

val histogram : ?lo:float -> t -> string -> Histogram.t
(** Get-or-create the named histogram, with {!Histogram.create}'s
    default growth ([lo] applies only on creation). *)

val histograms : t -> (string * Histogram.t) list
(** Name-sorted. *)

val register_stage : t -> string -> Flow.stage
val stages : t -> Flow.stage list
(** In registration order. *)

module Export : sig
  val spans_jsonl : t -> string
  (** One JSON object per line per completed span, oldest first. *)

  val chrome_trace : t -> string
  (** Chrome [trace_event] JSON ({"traceEvents":[...]}); durations in
      microseconds scaled from virtual seconds, one tid per [dst]
      attribute value. *)

  val to_file : path:string -> string -> unit
end
