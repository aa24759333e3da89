(** Mbuf-style byte chunks for the zero-copy data plane.

    A chunk is a chain of byte-slice segments over reference-counted
    Bigarray roots.  {!sub}, {!split} and {!concat} restructure chains
    without copying payload bytes; the only copies are the explicit
    boundary ones ({!of_string}, {!to_string}, {!blit_to_bytes}).

    Ownership is explicit and checked.  Every handle owns one
    reference per segment; {!release} returns them.  Releasing a
    handle twice, or touching it after release, raises the typed
    {!Fault} — the accounting exists to surface pipeline protocol
    bugs, not to manage memory (the GC does that regardless).  The
    global gauges {!live_roots}/{!live_bytes}/{!live_views} let tests
    assert that a whole run balanced its references back to zero.

    Refcounts and gauges are atomic: chunks cross domains by reference
    in the parallel runtime. *)

type buffer = (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

type t

type fault = Double_release | Use_after_free

exception Fault of fault * string

val fault_name : fault -> string

(** {1 Allocation — each makes one fresh root (one payload copy)}

    Except at length 0: a zero-length chunk has no segment and no
    root, like {!empty}, so it leaves every gauge as it found it. *)

val alloc : int -> t
(** Zero-filled chunk of [n] bytes. *)

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
    writev path at the syscall boundary. *)

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
val live_views : unit -> int

(** {1 Rendering} *)

val preview : ?max_len:int -> t -> string
(** Bounded rendering, safe on released handles — usable in the very
    diagnostics that reject hostile input. *)

val pp : Format.formatter -> t -> unit
