(** Typed record streams (§6).

    "Nothing I have said about Eden transput constrains Eden streams to
    be streams of bytes.  Streams of arbitrary records fit into the
    protocol just as well, provided only that they are homogeneous."
    The paper laments that the Eden Programming Language lacked type
    parameterisation; OCaml does not, so a ['a t] packages the
    encode/decode pair and the endpoint wrappers make whole pipelines
    typed: a peer that violates the record shape surfaces as a
    [Value.Protocol_error] — i.e. an error reply — rather than silent
    corruption. *)

module Value = Eden_kernel.Value
module Uid = Eden_kernel.Uid

type 'a t = { encode : 'a -> Value.t; decode : Value.t -> 'a }

(** {1 Base codecs} *)

val unit : unit t
val bool : bool t
val int : int t
val float : float t
val string : string t
val uid : Uid.t t

(** {1 Combinators} *)

val pair : 'a t -> 'b t -> ('a * 'b) t
val triple : 'a t -> 'b t -> 'c t -> ('a * 'b * 'c) t
val list : 'a t -> 'a list t
val option : 'a t -> 'a option t
(** [None] as [Unit], [Some x] as a 1-list; unambiguous for every
    payload codec. *)

val batch : ?max_items:int -> 'a t -> 'a list t
(** A length-framed batch, the payload shape of batched stream
    invokes: [[n; x1; …; xn]] with [n ≤ max_items] (default 1024).
    Unlike {!list}, a decoder can reject a truncated, padded or
    oversized frame {e before} interpreting the elements, so one
    malformed batch surfaces as a [Value.Protocol_error] (an error
    reply) instead of desyncing the stream.  @raise Invalid_argument
    when encoding more than [max_items]. *)

val map : ('a -> 'b) -> ('b -> 'a) -> 'a t -> 'b t
(** [map of_a to_a c] views a ['b] through ['a]'s wire shape. *)

val tagged : (string * 'a t) list -> (string * 'a) t
(** A crude variant: [(tag, payload)] where the tag selects the payload
    codec.  @raise Value.Protocol_error when decoding an unknown tag;
    @raise Invalid_argument when encoding one. *)

(** {1 Typed stream endpoints} *)

val write : 'a t -> Push.t -> 'a -> unit
(** Typed {!Push.write}. *)

val iter : 'a t -> ('a -> unit) -> Pull.t -> unit

(** {1 Typed transforms} *)

val lift_map : in_:'a t -> out:'b t -> ('a -> 'b) -> Transform.t
val lift_filter_map : in_:'a t -> out:'b t -> ('a -> 'b option) -> Transform.t
