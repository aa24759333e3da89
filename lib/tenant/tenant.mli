(** Per-tenant capability namespaces (DESIGN.md §16).

    The paper names channels with small forgeable integers; experiment
    T4 showed that {!Eden_transput.Channel.Cap} UIDs close that hole
    for a single trusting application.  This module grows the idea
    into a {e tenant} model: a registry installs itself as the
    kernel's admission {!Eden_kernel.Kernel.guard} and from then on
    every [Transfer]/[Deposit] aimed at a {e protected} Eject must
    present a capability the registry minted — delegable, revocable,
    bound to a session token, and scoped to one interface and one
    right (read or write).

    {2 Enforcement model}

    A capability is a pair of unforgeable UIDs: the {e channel id}
    (what requests name, [Channel.Cap cid]) and the {e session token}
    (what proves the request came from the holder the capability was
    issued to, not from someone who merely saw the channel id go by).
    Clients envelope each request with {!wrap}; the guard unwraps,
    checks, and rewrites the channel to the protected Eject's private
    {e underlying} channel — which is therefore never accepted from
    outside, even if published.  Handlers never see any of this: per
    the paper (§5) a producer cannot identify its consumers, so all
    authentication rides in the request value.

    Four attack classes are detected and metered per tenant, each as
    an {!Eden_obs.Obs.Flow} stage (so shell stats, exports and
    cluster-wide flow aggregation surface them for free):

    - {e forged id} — an integer channel, an unknown capability UID,
      or a malformed request on a guarded interface; charged to the
      protected Eject's owner (the victim sees the probe).
    - {e stolen channel} — a real capability presented without its
      session token, against the wrong interface, or against the wrong
      right; charged to the capability's namespace (the victim).
    - {e replayed Transfer} — a seq-stamped Transfer whose sequence
      was already accepted on that capability; charged to the
      capability's namespace.
    - {e credit hoard} — a Transfer whose credit would push the
      holder's outstanding (admitted, unreplied) credit over the
      registry quota; charged to the {e holder's} namespace — this
      meter names the offender, the other three name the victim.

    Revocation cascades over the delegation tree, reclaims the
    server-side outstanding credit of every revoked capability, and
    kills every client credit window bound to one
    ({!Eden_flowctl.Credit.revoke}) — so a windowed consumer winds
    down instead of leaking credits, and a fenced elastic drain keeps
    draining (internal eproto traffic is not guarded). *)

module Kernel = Eden_kernel.Kernel
module Uid = Eden_kernel.Uid
module Value = Eden_kernel.Value
module Channel = Eden_transput.Channel

type t
(** A registry: the only minter of capabilities for one kernel. *)

type tenant
(** A namespace handle: {!tenant} returns the same one for the same
    name. *)

type cap
(** A capability: one interface (protected Eject), one right, one
    underlying channel, one holder namespace, one session token. *)

type rights = Read | Write

type violation = Forged_id | Stolen_channel | Replayed_transfer | Credit_hoard

type defect = Revoke_skips_reclaim
(** Calibration mutant for the exploration suite: {!revoke} still
    marks the subtree revoked (the guard refuses further use) but
    {e forgets} to reclaim outstanding credit — bound client windows
    are left alive with their in-flight count stuck, the registry's
    outstanding gauge never drains, and nothing is metered as
    reclaimed.  Hidden under FIFO (no revocation fires there);
    {!Eden_check} finds it within a few dozen schedules. *)

val install : ?hoard_quota:int -> ?defect:defect -> Kernel.t -> t
(** Create a registry and install it as [k]'s admission guard.
    [hoard_quota] (default 256) bounds each tenant's outstanding
    Transfer credit across all its capabilities.  Every registry seeds
    its private UID generator alike, so forked shard processes that
    mint capabilities during topology build agree across the
    cluster. *)

val tenant : t -> string -> tenant
(** Get-or-create the named namespace (and its meter stages). *)

(** {1 Protection and capabilities} *)

val protect : t -> owner:tenant -> Uid.t -> unit
(** Guard the Eject: from now on its [Transfer]/[Deposit] operations
    admit only enveloped, capability-bearing requests.  [owner] is
    charged with unattributable violations (forged ids).  Other
    operations — including the elastic runtime's internal eproto
    sync/finish traffic — pass unguarded.  Idempotent; re-protecting
    with a different owner is an error. *)

val grant :
  t -> tenant -> rights:rights -> underlying:Channel.t -> Uid.t -> cap
(** Mint a root capability in [tenant]'s namespace for one channel of
    a protected Eject.  [underlying] is the Eject's private channel
    (what its port/intake actually registered); admitted requests are
    rewritten to it, and it is never accepted from the outside.
    @raise Invalid_argument if the Eject is not protected. *)

val delegate : t -> cap -> cap
(** A child capability with the same interface, right and underlying
    channel, in the parent's namespace.  Revoking the parent revokes
    it.  @raise Invalid_argument on a revoked parent. *)

val revoke : t -> cap -> unit
(** Revoke the capability and every descendant: the guard refuses
    them from now on, each one's server-side outstanding credit is
    reclaimed, and every bound client window is killed
    ({!Eden_flowctl.Credit.revoke}).  Reclaimed credit is metered
    ([tenant.<name>.credits_reclaimed]) and drained from the
    outstanding gauge.  Idempotent. *)

val channel : cap -> Channel.t
(** The public face: [Channel.Cap cid], what requests name. *)

val is_revoked : cap -> bool

val wrap : cap -> Value.t -> Value.t
(** The session-token envelope: what a tenant-aware client passes as
    [?wrap] to {!Eden_transput.Pull.connect} /
    {!Eden_transput.Push.connect}.  The guard unwraps; a guarded
    handler never sees the envelope. *)

(** {1 Tenant-aware connections} *)

val pull : Kernel.ctx -> ?flowctl:Eden_flowctl.Flowctl.t -> cap -> Eden_transput.Pull.t
(** {!Eden_transput.Pull.connect} against the capability's interface
    (one item per Transfer unless [flowctl] says otherwise), with the
    envelope applied to every request and (in windowed mode) the credit
    window bound to the capability.
    @raise Invalid_argument on a Write-only capability. *)

(** {1 Meters}

    Every counter below is also an {!Eden_obs.Obs.Flow} stage named
    [tenant.<name>.<counter>], registered on the kernel's collector:
    violations count in [items_in]; the [credits] gauge notes demand
    in and releases/reclaims out (its [max_occupancy] is the peak
    outstanding credit — the high-water mark a hoarder reached); the
    [caps] gauge notes grants in and revocations out. *)

val violation_count : t -> tenant -> violation -> int
val revoked_uses : t -> tenant -> int
(** Uses of an already-revoked capability of this namespace — refused
    and counted apart from the four attack classes (a stale holder is
    not necessarily hostile). *)

val outstanding_credit : t -> tenant -> int
(** Admitted, not-yet-replied Transfer credit (the hoard gauge). *)

val credits_reclaimed : t -> tenant -> int
val live_caps : t -> tenant -> int
(** Granted + delegated − revoked, the capability gauge the QCheck
    property balances. *)
