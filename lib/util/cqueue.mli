(** Growable array-backed circular FIFO.

    A flat replacement for [Stdlib.Queue] on hot paths: one contiguous
    array, no per-element cons cells, amortised O(1) push/pop.  The
    scheduler's run queue and [Window]'s retained items sit on this, so
    a node with many runnable fibers costs the GC one array instead of
    a linked spine per enqueue.  [Chan]'s bounded buffer and Obs's span
    store hold one at the capacity they were created with, so it never
    grows. *)

type 'a t

val create : ?capacity:int -> unit -> 'a t
val length : 'a t -> int
val is_empty : 'a t -> bool
val push : 'a t -> 'a -> unit
val pop : 'a t -> 'a option
val pop_exn : 'a t -> 'a
val clear : 'a t -> unit

val iter : ('a -> unit) -> 'a t -> unit
(** Front-to-back over current contents. *)

val get : 'a t -> int -> 'a
(** [get t i] is the [i]-th element from the front (0 = front), in
    O(1).  @raise Invalid_argument when out of range. *)

val take_nth : 'a t -> int -> 'a
(** [take_nth t i] removes and returns the [i]-th element from the
    front (0 = front), preserving the relative order of the others.
    O(i).  @raise Invalid_argument when out of range. *)
