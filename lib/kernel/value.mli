(** Invocation argument and reply values.

    Invocations carry a small dynamically-typed value (the Eden
    Programming Language lacked type parameterisation, §6, so the wire
    format is necessarily uniform).  Protocols built over invocation —
    the transput protocol among them — marshal into and out of this
    type; [Protocol_error] is what a well-behaved Eject raises when a
    peer violates the agreed protocol. *)

type t =
  | Unit
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Uid of Uid.t
  | List of t list
  | Chunk of Eden_chunk.Chunk.t
      (** A flat byte payload carried by reference — the zero-copy data
          plane's unit of transfer.  Sized and wire-framed like [Str]
          (length prefix + bytes), but [sub]/[split]/[concat] and every
          in-process hop move only the handle, never the bytes. *)

exception Protocol_error of string

(** {1 Constructors} *)

val unit : t
val bool : bool -> t
val int : int -> t
val float : float -> t
val str : string -> t
val uid : Uid.t -> t
val list : t list -> t
val pair : t -> t -> t
val chunk : Eden_chunk.Chunk.t -> t

(** {1 Accessors}

    Each raises {!Protocol_error} naming the expected shape on
    mismatch. *)

val to_unit : t -> unit
val to_bool : t -> bool
val to_int : t -> int
val to_float : t -> float
val to_str : t -> string
val to_uid : t -> Uid.t
val to_list : t -> t list
val to_chunk : t -> Eden_chunk.Chunk.t
val to_pair : t -> t * t

val equal : t -> t -> bool

val size : t -> int
(** Approximate marshalled size in bytes; drives simulated latency for
    size-dependent models. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string

val preview : t -> string
(** Like {!to_string} but bounded: at most 96 bytes of rendering are
    produced, with ["…"] marking the cut.  Use this in error messages
    built from untrusted values — a hostile decode must not be able to
    blow up the very diagnostic that rejects it. *)
