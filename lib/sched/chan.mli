(** Bounded blocking channel — intra-Eject IPC between two fibers of
    one Eject, with no kernel message.  Bench T5 prices it against an
    invocation; the [Stdio] veneer's shared buffer is a {!Eden_transput.Port}
    instead.  [put] blocks when full, [get] when empty. *)

type 'a t

val create : capacity:int -> 'a t
(** @raise Invalid_argument if [capacity <= 0]. *)

val put : 'a t -> 'a -> unit
(** Blocks while full.  Fiber context only. *)

val try_put : 'a t -> 'a -> bool
val get : 'a t -> 'a
(** Blocks while empty.  Fiber context only. *)

val try_get : 'a t -> 'a option
