(** CSP-style synchronous channels (§3 of the paper).

    "In these languages transput occurs when one process executes an
    output (!) operation and its correspondent executes an input (?)
    operation."  A rendezvous has no buffer at all: [send] blocks until
    a [recv] takes the value and vice versa — both sides are active and
    the runtime is the passive connection, one of the three readings §3
    offers for CSP's !/?.

    Used by tests to contrast rendezvous (both-active) with the paper's
    asymmetric disciplines (one-active). *)

type 'a t

val create : ?label:string -> unit -> 'a t

val send : 'a t -> 'a -> unit
(** Blocks until a receiver takes the value.  Fiber context only. *)

val recv : 'a t -> 'a
(** Blocks until a sender offers a value.  Fiber context only. *)

val try_send : 'a t -> 'a -> bool
(** Succeeds only if a receiver is already waiting. *)

val try_recv : 'a t -> 'a option
(** Succeeds only if a sender is already waiting. *)

val waiting_senders : 'a t -> int
