(** Barrier for "wait until these k tasks are done" patterns in tests
    and examples. *)

type t

val create : unit -> t
val add : t -> int -> unit
(** Registers that many outstanding tasks. *)

val finish : t -> unit
(** One task done.  @raise Failure if the count would go negative. *)

val wait : t -> unit
(** Blocks until the outstanding count is zero.  Fiber context only.
    Returns immediately when already zero. *)
