(** Park/wake queue — the primitive under every higher-level
    synchronisation structure.

    A fiber [park]s itself on the queue; any context may later [wake_one]
    or [wake_all].  Wakes are FIFO.  A waker left behind by a park that
    already ended — a cancelled fiber, or a timed-out
    [receive_timeout] — is skipped. *)

type t

val create : string -> t
(** The string names the queue in blocked-fiber listings. *)

val park : t -> unit
(** Suspend the current fiber until woken.  Fiber context only. *)

val park_external : t -> Sched.waker -> unit
(** Registers an externally-created waker (from {!Sched.park}) without
    suspending; used to race a queue against a timer. *)

val wake_one : t -> bool
(** Wakes the longest-parked fiber whose park has not ended; [false] if
    none was parked. *)

val wake_all : t -> int
(** Wakes everyone; returns how many fibers it woke. *)

val waiters : t -> int
