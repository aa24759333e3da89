(** Reliable invocation: timeout, bounded retries, backoff.

    The kernel's invocation is unreliable by construction — requests and
    replies cross the simulated network and are lost under loss or
    partition, and a crashed Eject's mailbox is discarded.  [invoke]
    layers at-least-once delivery on top: it re-issues the invocation
    after each {!Eden_kernel.Kernel.invoke_timeout} expiry, sleeping a
    {!Backoff} delay between attempts, until a reply arrives or the
    attempt budget is exhausted.

    Because invoking a passive Eject activates it from its last
    checkpoint, a retry is also the recovery path: the first retry to
    reach a crashed peer restarts it.  Idempotence is the caller's
    business — the resumable stream protocol gets it from sequence
    numbers (a retaining [Port] channel, and a [Pull] or [Push]
    connected with a {!client}). *)

module Kernel = Eden_kernel.Kernel
module Value = Eden_kernel.Value
module Uid = Eden_kernel.Uid

type policy = { timeout : float; max_attempts : int; backoff : Backoff.t }

val default_policy : policy
(** 10s timeout, 10 attempts, {!Backoff.default}. *)

val policy : ?timeout:float -> ?max_attempts:int -> ?backoff:Backoff.t -> unit -> policy
(** @raise Invalid_argument unless [timeout > 0] and
    [max_attempts >= 1]. *)

(** Per-call accounting, shared across calls when profiling a whole
    pipeline.  All counters are cumulative. *)
type meter = {
  mutable attempts : int;  (** Invocations issued, including first tries. *)
  mutable retries : int;  (** Attempts beyond the first of each call. *)
  mutable timeouts : int;  (** Attempts that expired unanswered. *)
  mutable exhausted : int;  (** Calls that gave up. *)
}

val create_meter : unit -> meter

(** What a retried stream connection carries: its policy, the meter
    it reports to, and the seed of its jitter.  A connection seeds a
    fresh PRNG from [seed] when it is made, so a stage that reconnects
    after a restart replays the same retry schedule. *)
type client = { policy : policy; meter : meter option; seed : int64 }

val client : ?policy:policy -> ?meter:meter -> int64 -> client
(** [policy] defaults to {!default_policy}. *)

exception Exhausted of string
(** Raised by [call] when the attempt budget runs out. *)

val invoke :
  ?policy:policy ->
  ?meter:meter ->
  prng:Eden_util.Prng.t ->
  Kernel.ctx ->
  Uid.t ->
  op:string ->
  Value.t ->
  Kernel.reply option
(** [None] when [max_attempts] expiries occurred without a reply.
    Jitter draws come from [prng], so a fixed seed gives a fixed retry
    schedule.  Fiber context only (sleeps between attempts). *)

val call :
  ?policy:policy ->
  ?meter:meter ->
  prng:Eden_util.Prng.t ->
  Kernel.ctx ->
  Uid.t ->
  op:string ->
  Value.t ->
  Value.t
(** Like [invoke] but unwraps the reply: raises
    {!Eden_kernel.Kernel.Eden_error} on an [Error] reply and
    {!Exhausted} when the budget runs out. *)
