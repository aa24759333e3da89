(** The kernel's UID-keyed Eject table, flattened.

    A {!Eden_util.Slab} holds the payloads; a dense [serial -> handle]
    int array turns a UID into a slab handle in O(1).  Serials are
    minted densely (see {!Uid.serial}) so the index is a direct map,
    not a hash table: lookup is two array reads plus a UID equality
    check, and the GC sees two flat arrays instead of a bucket chain
    per Eject.

    The UID check is what keeps capabilities sound: a foreign kernel's
    UID can collide on serial (each kernel mints from 0) and a
    destroyed Eject's slot may be recycled, but in both cases the
    stored UID's random tag differs, so [find] misses.  Stale UIDs
    fail lookup; they never alias a later resident. *)

type 'a t

val create : ?capacity:int -> dummy:'a -> uid_of:('a -> Uid.t) -> unit -> 'a t
(** [dummy] fills empty cells (never returned); [uid_of] projects the
    key stored alongside each payload, checked on every lookup. *)

val add : 'a t -> 'a -> unit
(** Registers [uid_of v].  @raise Invalid_argument on a duplicate
    serial — one generator feeds one store, so a collision is a bug. *)

val find : 'a t -> Uid.t -> 'a option
(** O(1).  [None] for never-registered, removed, or foreign UIDs. *)

val remove : 'a t -> Uid.t -> bool
(** Physically frees the slot (the slab recycles it) and clears the
    serial index entry.  [false] when [find] would have missed. *)

