(** Mbuf-style byte chunks for the zero-copy data plane.

    A chunk is a chain of byte-slice segments over reference-counted
    Bigarray roots.  {!sub}, {!split} and {!concat} restructure chains
    without copying payload bytes; the only copies are the explicit
    boundary ones ({!of_string}, {!to_string}, {!blit_to_bytes}).

    Ownership is explicit and checked.  Every handle owns one
    reference per segment; {!release} returns them.  Releasing a
    handle twice, or touching it after release, raises the typed
    {!Fault}.  The global gauges {!live_roots}/{!live_bytes}/
    {!live_views} let tests assert that a whole run balanced its
    references back to zero.

    The accounting also recycles memory.  When a root loses its last
    reference, its buffer goes back to the one pool, shared by every
    domain, of its power-of-two size class (4 KiB to 1 MiB, at most 8
    buffers each), and the next root of that class takes it instead of
    a fresh allocation; {!fresh_buffers} counts the buffers that had to
    be allocated.  A buffer is reused only once no handle can reach it,
    so a slice handed out by {!fold_slices} is valid only until its
    handle is released.

    Refcounts, gauges and pools are atomic: chunks cross domains by
    reference in the parallel runtime. *)

type buffer = (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

type t

type fault = Double_release | Use_after_free

exception Fault of fault * string

val fault_name : fault -> string

(** {1 Allocation — each makes one new root (one payload copy)}

    The root's buffer is a recycled one when its size class has one.
    Except at length 0: a zero-length chunk has no segment and no
    root, like {!empty}, so it leaves every gauge as it found it. *)

val alloc : int -> t
(** Zero-filled chunk of [n] bytes, recycled buffer or not. *)

val of_string : string -> t
val of_substring : string -> pos:int -> len:int -> t
val empty : unit -> t

(** {1 Liveness} *)

val length : t -> int
(** Total payload bytes.  Never faults — safe for accounting even on a
    released handle. *)

val is_released : t -> bool
val segments : t -> int

val release : t -> unit
(** Return this handle's references.  @raise Fault on double release. *)

(** {1 Reads — all raise [Fault (Use_after_free, _)] on a released
    handle} *)

val get : t -> int -> char
val blit_to_bytes : t -> src_pos:int -> Bytes.t -> dst_pos:int -> len:int -> unit
val to_string : t -> string

val fold_slices : t -> init:'a -> f:('a -> buffer -> pos:int -> len:int -> 'a) -> 'a
(** Visit the underlying slices in stream order without copying — the
    writev path at the syscall boundary.  A slice is [buffer[pos,
    pos+len)] and is valid only until the handle is released: the
    buffer may then be recycled into another chunk, and it may be
    longer than the root's bytes. *)

val index_from : t -> int -> char -> int option
(** Position of the first occurrence of the byte at or after [pos],
    scanning segments in place. *)

val equal : t -> t -> bool
(** Byte equality, segment layout ignored. *)

(** {1 Zero-copy restructuring — results are new handles; the inputs
    remain owned by the caller} *)

val sub : t -> pos:int -> len:int -> t
val split : t -> int -> t * t
val concat : t list -> t

(** {1 Accounting gauges (process-wide)} *)

val live_roots : unit -> int

val live_bytes : unit -> int
(** Bytes the live roots were made for, not the size of their
    buffers. *)

val live_views : unit -> int

val fresh_buffers : unit -> int
(** Root buffers allocated so far because no recycled one fitted; it
    never decreases.  A stream that runs on recycled memory stops
    moving it. *)

(** {1 Rendering} *)

val preview : ?max_len:int -> t -> string
(** Bounded rendering, safe on released handles — usable in the very
    diagnostics that reject hostile input. *)

val pp : Format.formatter -> t -> unit
