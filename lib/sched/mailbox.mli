(** Unbounded FIFO mailbox with blocking receive.

    The coordinator process of every Eject drains one of these; the
    kernel posts incoming invocation messages into it from any
    context. *)

type 'a t

val create : ?label:string -> unit -> 'a t
val send : 'a t -> 'a -> unit
(** Never blocks; safe from any context. *)

val receive : 'a t -> 'a
(** Blocks until a message is available.  Fiber context only. *)

val receive_timeout : Sched.t -> 'a t -> float -> 'a option
(** [None] if no message arrives within the virtual-time delay. *)

val try_receive : 'a t -> 'a option
val length : 'a t -> int
