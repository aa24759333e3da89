(** Unbounded multi-producer multi-consumer blocking queue, safe across
    OCaml domains.

    This is the carrier for cross-domain traffic in the parallel
    runtime: every {!Cluster} shard owns one inbox, remote shards push
    into it, and the owning domain blocks on {!pop} when it has nothing
    else to run.  Plain mutex + condition variable — the simulator's
    cross-domain hops are coarse (one per remote invocation), so lock
    cost is noise next to the work each message triggers.

    Unlike the fiber-level {!Eden_sched.Mailbox}, these operations block
    the whole {e domain}, never a fiber; they must not be called from
    inside a running scheduler slice that other fibers are waiting on.

    Shutdown: {!close} wakes every blocked reader.  Readers drain
    whatever was pushed before the close, then receive [None]. *)

type 'a t

val create : unit -> 'a t

val push : 'a t -> 'a -> bool
(** Enqueue and wake one blocked reader.  [false] (and no enqueue) when
    the queue is closed.  Never blocks. *)

val pop : 'a t -> 'a option
(** Dequeue, blocking the calling domain while the queue is empty and
    open.  [None] only when the queue is closed and drained. *)

val try_pop : 'a t -> 'a option
(** Non-blocking dequeue: [None] when currently empty (closed or
    not). *)

val close : 'a t -> unit
(** Idempotent.  Subsequent pushes are refused; blocked and future
    readers drain the backlog and then get [None]. *)

val is_closed : 'a t -> bool

val length : 'a t -> int
(** Instantaneous size; advisory under concurrency. *)
