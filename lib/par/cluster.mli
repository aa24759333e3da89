(** Parallel runtime: one simulated Eden cluster sharded over OCaml
    domains.

    Each {e shard} is a complete, self-contained {!Eden_kernel.Kernel}
    — its own scheduler, network, observability collector and PRNG
    stream (split from the cluster seed, see {!Eden_util.Prng.split}).
    In [Parallel] mode every shard runs on its own domain; in
    [Deterministic] mode one thread pumps the shards round-robin in a
    fixed order, giving a bit-reproducible schedule that serves as the
    oracle for equivalence tests.

    Ejects on different shards interact through {e proxies}: a proxy is
    a local Eject whose handlers forward the invocation as a
    request/reply message pair over the target shard's {!Dqueue} inbox
    and block the calling fiber on an {!Eden_sched.Ivar} until the reply
    comes back.  Same-shard targets take the fast path — {!proxy}
    returns the target UID itself and no message crosses a domain
    boundary.

    Termination in parallel mode is detected with an [idle]/[in_flight]
    counter pair: a message is counted in flight {e before} it is
    pushed, and a shard leaves the idle count {e before} it processes a
    popped message, so "all shards idle and nothing in flight" can only
    be observed when the whole cluster is quiescent.  The shard that
    makes that observation closes every inbox, releasing the others from
    their blocking pops. *)

type wire_config = {
  wire_transport : Eden_wire.Transport.kind;
      (** Unix-domain socket or TCP loopback. *)
  wire_faults : Eden_wire.Faults.t option;
      (** Fault injection applied at the hub's egress: one script event
          per data frame the hub sends, so a replay's per-frame loss
          script lines up with those frames.  Frames between two leaves
          travel on their own link and are not faulted. *)
  wire_auth : Eden_wire.Auth.community option;
      (** When set, every frame on every socket is sealed with an
          8-byte MAC trailer under a per-socket session token that both
          ends derive from the community key and a nonce drawn for the
          run — {!Eden_wire.Auth.mint_token} for a hub socket,
          {!Eden_wire.Auth.link_token} for a leaf-to-leaf link — so no
          frame is exchanged to agree on it; [None] preserves the plain
          path for benchmarks. *)
}

type mode =
  | Deterministic
  | Parallel
  | Wire of wire_config
      (** One OS process per shard over real sockets.  Shard 0 (the
          {e hub}) stays in the calling process and has a socket to
          every leaf; each pair of leaves that some {!proxy} connects
          has a link of its own, so a Request or Reply always travels
          straight from its sender to its receiver and no process
          relays.  The parent makes every one of these sockets with
          {!Eden_wire.Transport.pair} before it forks, so no process
          listens and no socket needs a handshake.  {!run} forks the
          leaves {e after} the topology is built, so every Eject,
          closure and UID crosses by inheritance and both ends of each
          proxy already agree on names; frames carry [Value]s in the
          {!Eden_wire.Bin} codec.  At most 256 shards (shard indices
          ride in one header byte).

          The OCaml 5 runtime forbids [Unix.fork] once any domain has
          ever been spawned, so in a process that mixes modes every
          [Wire] run must complete before the first [Parallel] one
          starts. *)

type t

val create :
  ?seed:int64 ->
  ?latency:Eden_net.Net.latency ->
  mode ->
  shards:int ->
  unit ->
  t
(** [shards] complete kernels.  Shard seeds are derived by splitting the
    cluster seed, so shard [i]'s randomness is the same in both modes
    and for any shard count.
    @raise Invalid_argument on non-positive [shards]. *)

val mode : t -> mode
val shard_count : t -> int

val kernel : t -> int -> Eden_kernel.Kernel.t
(** The shard's kernel, e.g. to create Ejects on it before {!run}.
    After {!run} has been called, treat it as read-only from the
    calling domain. *)

val driver : t -> int -> (Eden_kernel.Kernel.ctx -> unit) -> unit
(** Registers a driver fiber on the shard (see
    {!Eden_kernel.Kernel.spawn_driver}); it executes during {!run}. *)

val proxy :
  t ->
  shard:int ->
  ops:string list ->
  target:int * Eden_kernel.Uid.t ->
  Eden_kernel.Uid.t
(** A UID that Ejects on [shard] can invoke to reach [target] on
    another shard.  Only the listed [ops] are forwarded.  When the
    target lives on [shard] itself, the target UID is returned
    unchanged (no proxy Eject, no cross-domain message).  Must be
    called before {!run}: in [Wire] mode the proxies decide which
    leaves get a link.
    @raise Invalid_argument naming the index when [shard] or the
    target's shard is not in [[0, shard_count t)]. *)

val set_det_pick : t -> (n:int -> int) option -> unit
(** Installs (or clears) a shard-order policy for [Deterministic] mode
    (ignored by [Parallel] mode).  Each pump pass visits every shard
    exactly once; with a policy installed, the next shard to pump is
    chosen by calling it with [n] = the number of shards not yet
    visited this pass, and taking the returned index (0-based) into the
    not-yet-visited shards in ascending shard order.  Always answering
    [0] — or installing no policy — reproduces the fixed round-robin
    order bit-identically.  Out-of-range answers raise
    [Invalid_argument].  Used by Eden_check to explore cross-shard
    message orderings. *)

val run : t -> unit
(** Drives the whole cluster to quiescence — round-robin on the calling
    domain in [Deterministic] mode, one [Domain.spawn] per shard in
    [Parallel] mode, one forked OS process per leaf shard in [Wire]
    mode — then re-raises the first fiber failure of any shard.  In
    [Wire] mode a leaf sends its first failure with its shutdown stats,
    and the failure names the shard; a leaf that exits or closes its
    socket at any point before its stats fails the run naming the shard
    and its exit status, after the hub has closed every socket and
    reaped every leaf.  May be called once.

    Wire termination: a leaf about to block whose counts changed since
    its last report sends the hub an [Idle] with, for each of its
    sockets, the data frames it has sent and taken.  The hub stops when
    it is idle itself and every directed socket balances — its sender's
    count equals its receiver's, read from the latest reports and the
    hub's own counters.  Each socket is FIFO and every report comes from
    a leaf about to block, so equal counts mean no frame crosses the cut
    of those reports in either direction: the cut is a global state in
    which every process is idle and nothing is in flight.  Frames eaten
    by fault injection were never sent, so a faulted run still
    terminates (the requesting fiber stays blocked, exactly like
    simulated loss without retransmission). *)

val meter : t -> Eden_kernel.Kernel.Meter.snapshot
(** Counter-wise sum over all shards.  In [Wire] mode (after {!run})
    this sums the hub shard with the stats every leaf process reported
    over its socket at shutdown — the parent's copies of leaf kernels
    are stale pre-fork snapshots and are not consulted. *)

val op_counts : t -> (string * int) list
(** Per-operation invocation counts summed over all shards, sorted by
    name.  Proxy forwarding re-issues the operation on the target
    shard, so a cross-shard invocation counts twice (once per side) in
    every mode — equivalence tests compare like with like.  Wire mode
    aggregates leaf-reported stats, like {!meter}. *)

val flows : t -> (string * int * int) list
(** Per-stage [(label, items_in, items_out)] over all shards, sorted.
    Wire mode aggregates leaf-reported stats. *)

val histograms : t -> (string * Eden_obs.Obs.Histogram.t) list
(** Merged histograms by name, sorted.  Wire mode reports the hub shard
    only: wall-clock timing makes leaf histograms transport-dependent,
    so they are not part of the equivalence surface. *)

val makespans : t -> float array
(** Final virtual time per shard.  Wire mode: hub read locally, leaves
    from their reported stats. *)

val cross_messages : t -> int
(** Messages that crossed a shard boundary (requests + replies).  In
    [Wire] mode: the data frames the hub sent (fault-dropped ones
    included) and took, plus the frames each leaf sent on its
    leaf-to-leaf links, which it reports at shutdown — each frame
    exactly once. *)
