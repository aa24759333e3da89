(** Cooperative fiber scheduler over simulated (virtual) time.

    Every Eject process in the Eden simulation is a fiber.  Fibers run
    deterministically: a FIFO run queue, a stable timer heap, and no
    wall-clock dependence mean that a given program produces the same
    schedule on every run.  Virtual time only advances when the run
    queue drains, jumping to the earliest pending timer — the usual
    discrete-event rule.

    {2 Ordering contract}

    The exact contract — which {!step}, {!run} and {!run_until} all
    implement, and which every exploration policy (see {!set_chooser})
    must preserve — is:

    + {b Runnable before timers.}  While any fiber is runnable, no
      timer fires and virtual time does not advance.  A timer thunk
      only runs at run-queue quiescence.
    + {b Timers strictly by deadline.}  Pending timers fire in
      ascending deadline order.  Two timers due at the same instant
      fire in insertion order (the heap is stable).  The clock jumps to
      each fired timer's deadline; it never moves backwards.
    + {b FIFO among runnable fibers.}  With no chooser installed, the
      run queue is strictly FIFO: fibers run in the order they became
      runnable (spawn order for new fibers, wake order for resumed
      ones); {!yield} re-queues behind every currently runnable fiber.
    + {b Policy freedom is bounded.}  A chooser may reorder only
      {e within} the legal sets: which runnable fiber runs next, and
      which of several timers {e tied at the same deadline} fires
      first.  It can never run a later-deadline timer early, fire a
      timer while a fiber is runnable, or resurrect ordering between
      non-tied timers.
    + {b [run_until] boundary.}  [run_until t limit] fires every timer
      with deadline [<= limit] — a timer due {e exactly} at [limit]
      does fire — and then advances the clock to exactly [limit] if it
      is still behind.  Timers with deadline [> limit] stay pending.

    Blocking operations ([yield], [sleep], [suspend] and everything in
    {!Waitq}, {!Ivar}, {!Mailbox}, {!Chan}, {!Semaphore}, {!Waitgroup})
    may only be called from inside a fiber; calling them elsewhere
    raises [Effect.Unhandled].  Non-blocking operations ([spawn],
    [timer], wakes, sends) are safe anywhere. *)

type t
(** A scheduler instance. *)

type fiber_id = int

exception Cancelled
(** Raised inside a fiber that has been [cancel]led, at its next
    suspension point. *)

val create : unit -> t

(** {1 Driving the simulation} *)

val run : t -> unit
(** Runs until quiescence: no runnable fiber and no pending timer.
    Blocked fibers may remain (e.g. servers parked waiting for requests);
    inspect them with [blocked]. *)

val run_until : t -> float -> unit
(** Like [run] but bounded by virtual time: fires every timer due at or
    before the given instant (the boundary is {e inclusive}: a timer due
    exactly at [limit] fires), then stops with the clock set to exactly
    [limit].  Timers due strictly after [limit] stay pending.  See the
    ordering contract above. *)

val step : t -> bool
(** Executes one runnable fiber slice, or — only when no fiber is
    runnable — one timer; [false] when quiescent.  Useful for tests
    that interleave assertions.  See the ordering contract above. *)

val now : t -> float
(** Current virtual time. *)

val live_count : t -> int
(** Fibers spawned and not yet finished. *)

val runnable : t -> int
(** Fiber slices waiting in the run queue: how many more {!step}s run
    before a timer can fire.  A driver that interleaves IO with {!step}
    reads it to tell "more work is ready now" from "about to go idle". *)

val tracked_count : t -> int
(** Fibers currently held in the scheduler table.  Finished fibers are
    removed eagerly, so after [run] this counts only live (typically
    blocked) fibers. *)

val is_live : t -> fiber_id -> bool
(** Whether the fiber exists and has not finished. *)

val current_fid : t -> fiber_id option
(** The id of the fiber currently executing, if any.  [None] between
    fibers and inside raw [timer] thunks. *)

val set_finish_hook : t -> (fiber_id -> unit) -> unit
(** Installs a callback invoked (synchronously, after table removal)
    each time a fiber finishes, successfully or not.  One hook per
    scheduler; setting replaces the previous one.  Used by the kernel
    to drop fiber-to-Eject bookkeeping. *)

(** {1 Schedule exploration hooks}

    The systematic concurrency checker (Eden_check) drives these.  With
    no chooser installed the scheduler is the bit-identical FIFO
    baseline and [note] is free, so production runs are unaffected. *)

val set_chooser : t -> (kind:string -> ids:int array -> int) option -> unit
(** Installs (or clears) a scheduling policy.  At each decision point
    with more than one legal alternative the chooser is called with the
    decision [kind] and the candidates, and must return an index into
    [ids]:

    - ["sched.run"]: [ids] are the ids of the runnable fibers in FIFO
      order; the chosen fiber runs next.  Unchosen fibers keep their
      relative order.
    - ["sched.timer"]: [ids] is [[|0 .. m-1|]] for [m] timers tied at
      the earliest deadline, in insertion order; the chosen one fires.

    Decision points with exactly one alternative are not reported.  An
    out-of-range answer raises [Invalid_argument].  Policies can only
    reorder within the legal sets of the ordering contract above. *)

val set_note_hook : t -> (kind:string -> arg:int -> unit) option -> unit
(** Installs (or clears) a recorder for {!note} events. *)

val note : t -> kind:string -> arg:int -> unit
(** Records an externally-made nondeterministic decision (a network
    loss draw, a crash firing, a credit grant) into the installed note
    hook, so the decision trace captures every source of
    nondeterminism.  A no-op when no hook is installed. *)

val blocked : t -> (string * string) list
(** [(fiber name, reason)] for every currently blocked fiber. *)

val blocked_info : t -> (fiber_id * string * string) list
(** [(fiber id, fiber name, reason)] for every currently blocked
    fiber, sorted by id. *)

val failures : t -> (string * exn) list
(** Fibers that terminated with an uncaught exception (most recent
    first).  [Cancelled] terminations are not failures. *)

val check_failures : t -> unit
(** @raise Failure describing the first recorded failure, if any. *)

(** {1 Creating and controlling fibers} *)

val spawn : t -> ?name:string -> (unit -> unit) -> fiber_id
(** Registers a new fiber; it starts when the run loop reaches it. *)

val cancel : t -> fiber_id -> unit
(** Marks the fiber cancelled.  If it is blocked it is woken with
    {!Cancelled}; otherwise it receives {!Cancelled} at its next
    suspension point.  Cancelling a finished fiber is a no-op. *)

val timer : t -> float -> (unit -> unit) -> unit
(** [timer t delay f] runs [f] at virtual time [now t +. delay].  [f]
    must not block (it runs outside any fiber); typically it wakes one. *)

type timer_handle = int

val timer_cancellable : t -> float -> (unit -> unit) -> timer_handle
(** Like {!timer} but returns a handle accepted by {!cancel_timer}.
    Handles are generation-stamped: once the timer has fired (or been
    cancelled) the handle is stale and cancelling it is a no-op. *)

val cancel_timer : t -> timer_handle -> unit
(** Physically removes a pending timer from the heap.  The entry is
    deleted immediately — it does not linger as a tombstone until its
    deadline — so cancel-heavy workloads (timeouts that rarely fire,
    sleep cancellation storms) keep the heap at its live size. *)

val timer_count : t -> int
(** Number of timers currently pending in the heap.  Cancelled timers
    do not count: cancellation deletes physically. *)

(** {1 Operations inside a fiber} *)

val yield : unit -> unit
(** Re-queues the current fiber behind all currently runnable ones. *)

val sleep : float -> unit
(** Suspends for the given span of virtual time. *)

type waker
(** One park of one fiber: the handle that ends it. *)

val park : reason:string -> ('a -> waker -> unit) -> 'a -> unit
(** [park ~reason register x] parks the current fiber.  [register x w]
    is called immediately with the park's waker; stash it somewhere a
    waker will find it.  [reason] appears in [blocked] listings.
    Passing [x] separately lets a caller register with a closed
    function, so a park allocates no closure. *)

val wake : waker -> bool
(** Ends the park and makes its fiber runnable; [false], and nothing
    happens, when the park has already ended — woken before, timed out,
    or its fiber cancelled.  May be called from any context. *)

val suspend : reason:string -> ((unit -> unit) -> unit) -> unit
(** [suspend ~reason register] is {!park} with a [resume] closure
    instead of a waker: [register] is called immediately with it.
    [resume] is idempotent and may be called from any context. *)

val time : unit -> float
(** Virtual time, from inside a fiber. *)

val self_name : unit -> string

val spawn_inside : ?name:string -> (unit -> unit) -> fiber_id
(** [spawn] without needing the scheduler handle; for fibers spawning
    workers. *)
