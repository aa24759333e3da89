(** Index-backed mutable timer heap with physical removal.

    An array-backed binary heap of [(deadline, value)] entries, ordered
    lexicographically by [(deadline, insertion sequence)] — a total
    order, so equal deadlines pop strictly in insertion order (the
    stability the scheduler's ordering contract requires) and the heap's
    internal layout is deterministic.

    Every insertion returns a generation-stamped {!handle} backed by a
    {!Slab}-style slot table that tracks each entry's current heap
    position, so {!remove} physically deletes an entry in O(log n) — a
    cancelled timer costs nothing afterwards, instead of sitting in the
    heap as a tombstone until its deadline would have fired. *)

type 'a t

type handle = int
(** Stale-proof: removing (or popping) an entry invalidates its handle;
    a later {!remove} with the same handle is a no-op returning
    [false]. *)

val create : dummy:'a -> unit -> 'a t
(** An empty heap with room for 16 entries; it grows as needed. *)

val insert : 'a t -> float -> 'a -> handle

val remove : 'a t -> handle -> bool
(** Physically deletes the entry; [false] when the handle is stale
    (already removed or already fired). *)

val size : 'a t -> int

val is_empty : 'a t -> bool

val delete_min : 'a t -> (float * 'a) option
(** Earliest deadline; insertion order among ties. *)

val min_key : 'a t -> float
(** The earliest deadline; [infinity] when empty. *)

val pop_min : 'a t -> 'a
(** {!delete_min}'s value alone, with no option or pair built: the
    form a hot loop that already read {!min_key} wants.
    @raise Invalid_argument when empty. *)

val min_tie_count : 'a t -> int
(** How many entries are tied at the minimum deadline.  Deadlines tie
    when [Float.compare] finds them equal, as the heap orders them: NaN
    deadlines sort first and tie with each other. *)

val delete_nth_min : 'a t -> int -> (float * 'a) option
(** [delete_nth_min t i] removes the [i]-th entry (insertion order)
    among those tied at the minimum deadline.  The relative order of
    the remaining ties is preserved.
    @raise Invalid_argument when [i] is out of range. *)
