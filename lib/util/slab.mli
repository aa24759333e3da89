(** Generation-stamped slab: a flat, GC-friendly entity store.

    A slab holds up to millions of entries in one contiguous array with
    a free-list of recycled slots, so the per-entry cost is one array
    cell plus one generation word — no per-binding buckets, no
    rehashing, no tree nodes for the GC to trace.

    Every allocation returns a {e handle}: an int packing the slot index
    with the slot's generation stamp.  Freeing a slot bumps its
    generation, so a stale handle (one whose slot was freed, or freed
    and reallocated) always {e misses} — it can never alias the slot's
    next resident.  This is the property the kernel's UID map needs:
    lookups by a destroyed Eject's UID must fail, not hit a recycled
    entry.

    Iteration order is deterministic: ascending slot index, which
    depends only on the history of alloc/free operations, never on
    hashing. *)

type 'a t

type handle = int
(** [slot lor (generation lsl slot_bits)].  Always positive; never 0 is
    {e not} guaranteed, so use [-1] (or any negative int) as a sentinel
    for "no handle". *)

val slot_bits : int
(** Number of low bits holding the slot index (26: up to ~67M slots). *)

val create : ?capacity:int -> dummy:'a -> unit -> 'a t
(** [dummy] fills empty cells so freed payloads are not retained by the
    array.  It is never returned by [get]/[free]. *)

val alloc : 'a t -> 'a -> handle
(** O(1); reuses the most recently freed slot, growing the arrays
    (doubling) when the free list is empty. *)

val get : 'a t -> handle -> 'a option
(** [None] when the handle is stale (freed, or freed-and-reallocated)
    or out of range. *)

val mem : 'a t -> handle -> bool

val set : 'a t -> handle -> 'a -> bool
(** Replaces a live handle's payload; [false] (and no write) when
    stale. *)

val free : 'a t -> handle -> 'a option
(** Releases the slot, returning its payload; [None] when the handle
    was already stale (double-free is a miss, not a corruption).  The
    cell is reset to [dummy] so the payload can be collected. *)

val live : 'a t -> int
(** Number of live entries. *)

val fold : (handle -> 'a -> 'acc -> 'acc) -> 'a t -> 'acc -> 'acc
(** Live entries in ascending slot order. *)

val slot_of : handle -> int
