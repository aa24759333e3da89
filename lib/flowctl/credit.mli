(** Credit window accounting.

    A credit window bounds the number of {e outstanding} exchanges a
    client may have in flight against one port or intake: each
    [Transfer] / [Deposit] takes a credit when issued and gives it back
    when the reply lands.  [Window 1] is the paper's rendezvous —
    strictly one exchange at a time.  Wider windows pipeline
    invocations over the simulated network, hiding latency.

    [Unlimited] still pipelines through a finite client-side depth
    ({!unlimited_depth}) so "infinite credit" cannot turn into an
    unbounded queue of speculative requests. *)

type limit = Window of int | Unlimited

val unlimited_depth : int
(** Client-side pipelining depth that [Unlimited] resolves to (64). *)

val cap : limit -> int
(** The effective window: [Window n] → [n], [Unlimited] →
    {!unlimited_depth}.  @raise Invalid_argument on [Window n] with
    [n < 1]. *)

type t

val create : limit -> t
(** A window with all credits available.  @raise Invalid_argument on
    [Window n] with [n < 1]. *)

val available : t -> int
val in_flight : t -> int

val take : t -> bool
(** Claim one credit; [false] when the window is exhausted (a signal to
    stop issuing and drain replies). *)

val give : t -> unit
(** Return one credit.  @raise Invalid_argument when none are in
    flight — a give without a matching take is always a caller bug.
    After {!revoke} this is a no-op: replies that were already in
    flight when the window died land harmlessly. *)

val revoke : t -> int
(** Kill the window: reclaim every outstanding credit and return how
    many were reclaimed (the amount a tenant registry meters as
    [credits_reclaimed]).  Afterwards [take] always refuses,
    [available] is 0 and [give] is a no-op, so a windowed client winds
    down instead of re-issuing.  Idempotent — a second revoke reclaims
    0. *)

val revoked : t -> bool
