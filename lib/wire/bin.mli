(** Byte-level binary codec for {!Eden_kernel.Value.t}.

    The simulated kernel moves [Value.t] trees by reference; the wire
    moves bytes.  This codec is the bridge: a compact tagged binary
    form whose sizes match [Value.size] exactly (1 byte for unit, 1+1
    for bool, 1+8 for int/float, 1+4+len for strings and chunks, 1+16
    for UIDs, 1+4+elements for lists — the leading tag byte is the
    only overhead), so the simulated latency model and the real
    transport agree on what a value costs.

    Decoding is strict and hostile-input safe:
    - every length/count is bounds-checked against the bytes actually
      present {e before} any allocation, so a forged 4 GiB length
      prefix costs nothing;
    - nesting is capped at {!max_depth} (no stack overflow from a
      crafted list-of-list chain);
    - {!decode} consumes the whole string — trailing bytes are a
      protocol violation, not silently ignored;
    - every failure raises [Value.Protocol_error] with a bounded
      message, after releasing every chunk the decode had made, so a
      corrupt frame leaks no chunk handle. *)

module Value = Eden_kernel.Value

val max_depth : int
(** Maximum [List] nesting accepted by the decoder (200). *)

val to_buffer : Buffer.t -> Value.t -> unit
val encode : Value.t -> string

(** {1 Gather encoding}

    [Chunk] payloads are big and already flat; flattening them through
    a [Buffer] would copy each payload twice before the socket sees it.
    {!parts} produces the same byte stream as {!encode} but keeps every
    chunk payload as a live reference, so a writer can copy the flat
    header strings and each payload straight into its output buffer
    ({!Conn.send_parts}). *)

type part =
  | Flat of string  (** tag/length framing and non-chunk values *)
  | Payload of Eden_chunk.Chunk.t  (** raw chunk bytes, by reference *)

val parts : Value.t -> part list
(** [String.concat "" (flattened parts v) = encode v]. *)

val part_length : part -> int
val parts_length : part list -> int

val decode : string -> Value.t
(** Decode exactly one value spanning the whole string.
    @raise Value.Protocol_error on truncation, trailing bytes, unknown
    tags, hostile lengths/counts, or over-deep nesting. *)

val decode_prefix : string -> pos:int -> Value.t * int
(** Decode one value starting at [pos]; returns the value and the
    position just past it.  Same error discipline as {!decode} except
    trailing bytes are the caller's business. *)
