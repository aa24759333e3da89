(** A supervisor Eject: crash detection and checkpoint restart.

    The kernel's activation-on-invocation already heals passive stages —
    any retried invocation restarts them.  What it cannot heal is a
    crashed {e pump}: a read-only sink, write-only source or
    conventional active stage receives no invocations, so nothing ever
    reactivates it and the pipeline stalls forever (the failure
    demonstrated in the seed's failure tests).  The supervisor closes
    that gap.

    It is itself an Eject whose monitor process wakes every [interval]
    of virtual time and, for each watched Eject:

    - compares the kernel's per-Eject crash counter against the last
      value seen (a management-plane read: probing by invocation would
      itself reactivate the target and mask the crash);
    - on a new crash, waits a restart backoff (0.5 doubling to a cap of
      8, jittered 10%) and {!Eden_kernel.Kernel.poke}s the Eject, which
      reactivates from its latest checkpoint — the resumable-stream
      protocol then replays the lost window;
    - gives up (recorded, and reported via [on_give_up]) when more than
      [max_restarts] restarts land inside a sliding [window] — the
      escalation path for a stage that keeps dying.

    Detection is by crash count only: a stage that is alive but stuck is
    not restarted.  The supervisor serves no operations; watches and
    policy live in driver memory shared with the behaviour closure, so
    the supervisor itself surviving a crash needs only a poke to resume
    monitoring with its watch list intact. *)

module Kernel = Eden_kernel.Kernel
module Uid = Eden_kernel.Uid

type policy = {
  interval : float;  (** Monitor period; also the crash-detection latency bound. *)
  max_restarts : int;
  window : float;  (** Sliding window for [max_restarts]. *)
}

val policy : ?interval:float -> ?max_restarts:int -> ?window:float -> unit -> policy

type t
(** Handle owned by the driver; the underlying Eject is [uid]. *)

val create :
  Kernel.t ->
  ?name:string ->
  ?policy:policy ->
  ?on_give_up:(string -> Uid.t -> unit) ->
  unit ->
  t

val watch : t -> label:string -> Uid.t -> unit
(** Adds an Eject to the watch list (idempotent per UID). *)

val unwatch : t -> Uid.t -> unit

val start : t -> unit
(** Pokes the supervisor Eject, starting the monitor process. *)

val stop : t -> unit
(** Ends monitoring after at most one more tick, letting the simulation
    quiesce. *)

(** {1 Status} *)

val restarts : t -> int
(** Total pokes issued. *)

val give_ups : t -> int
(** Total watches abandoned, mirroring {!restarts}.  Counted on the
    shared control record (so it survives supervisor crashes) and never
    decremented — unlike {!gave_up}, it is unaffected by a later
    [unwatch] of the abandoned entry.  Each give-up is also annotated on
    the kernel's collector as a ["supervisor.give_up"] instant with the
    in-window restart count and budget. *)

val gave_up : t -> (string * Uid.t) list
(** Watches abandoned after exceeding the restart budget. *)

