(** The retained window of one seq-stamped stream: the items at
    absolute positions [\[base, next)], oldest first, in one flat queue
    with O(1) append and trim.

    A {!Port} channel, a resumable {!Push} and an elastic
    router→replica link each keep their stream in one.  [trim] is the
    one trim-to-acknowledgement rule: acknowledging position [a] drops
    everything below it, but never moves [base] past [next] — a
    position not yet written cannot be acknowledged, so the next append
    still lands at [next]. *)

type 'a t

val create : ?base:int -> unit -> 'a t
(** An empty window whose first append lands at [base] (default 0). *)

val base : 'a t -> int
val next : 'a t -> int
val length : 'a t -> int
val is_empty : 'a t -> bool

val push : 'a t -> 'a -> unit
(** Appends at [next]. *)

val trim : 'a t -> int -> unit
(** [trim w a] drops the items at [\[base, min a next)]. *)

val sub : 'a t -> int -> int -> 'a list
(** [sub w pos n] is the items held at positions [\[pos, pos + n)]. *)

val take : 'a t -> int -> 'a list
(** [take w n] is [sub w (base w) n], trimmed off the window. *)

val to_list : 'a t -> 'a list

val reset : 'a t -> base:int -> 'a list -> unit
(** Replaces the contents with [items] at positions from [base] on. *)
