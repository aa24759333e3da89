(** A buffered frame connection over one non-blocking socket.

    Frames queue in one growable output buffer and {!flush} sends
    everything queued with one [write], so a process that emits several
    frames in one scheduler turn pays one syscall for all of them.  A
    flush never blocks: what the socket does not take stays queued, and
    the caller waits for the socket to become writable (while it goes
    on reading) before it flushes again — so two processes that each
    have more to send the other than a socket holds keep draining each
    other instead of wedging.
    On the way in, one [read] takes whatever the socket holds and
    frames are cut from the input buffer; {!take} never touches the
    socket.

    The bytes on the wire are exactly those of {!Frame.encode} (and, for
    a sealed frame, of {!Auth.seal}): buffering changes how many
    syscalls carry them, never what they are.

    The input buffer starts at 4 KiB and grows to the largest frame
    seen.  A length word is validated ({!Frame.length_word}) before the
    buffer grows for it, so a hostile length costs nothing. *)

type t

val create : Unix.file_descr -> t
(** Take over a socket whose handshake is done, and make it
    non-blocking.  Nothing may have been read past the handshake frame
    (see {!Frame.read}). *)

val fd : t -> Unix.file_descr

(** {1 Sending} *)

val send : ?session:Auth.session -> t -> Frame.t -> unit
(** Queue one frame; with [session], sealed as {!Auth.seal} would seal
    it.  @raise Invalid_argument if the payload exceeds
    {!Frame.max_payload}. *)

val send_parts :
  ?session:Auth.session ->
  t ->
  kind:Frame.kind ->
  ?flags:int ->
  src:int ->
  dst:int ->
  ?seq:int ->
  Bin.part list ->
  unit
(** Queue a frame whose payload is a {!Bin.parts} list, copying each
    chunk payload once, straight into the output buffer.  Byte-identical
    to [send (Frame.make ... (String.concat "" flattened))].  The chunks
    stay owned by the caller. *)

val send_value :
  ?session:Auth.session ->
  t ->
  kind:Frame.kind ->
  ?flags:int ->
  src:int ->
  dst:int ->
  ?seq:int ->
  Eden_kernel.Value.t ->
  unit
(** [send_parts] of [Bin.parts v]. *)

val pending : t -> int
(** Bytes queued and not yet written. *)

val flush : t -> unit
(** Write what is queued until the socket refuses more: one [write]
    when it takes everything.  Never blocks; whatever the socket did
    not take stays queued, and {!pending} says how much. *)

(** {1 Receiving} *)

val take : ?session:Auth.session -> t -> Frame.t option
(** The next whole frame already in the input buffer, opened with
    [session] when given; [None] without a syscall when none is.
    @raise Eden_kernel.Value.Protocol_error on a malformed header,
    hostile length or failed MAC. *)

val partial : t -> bool
(** The length word of a frame has arrived but the rest has not: a
    reader that saw this knows a whole frame is on its way. *)

val fill : t -> unit
(** One [read] of whatever the socket holds, into the input buffer;
    nothing when it holds nothing.
    @raise End_of_file on a close at a frame boundary.
    @raise Eden_kernel.Value.Protocol_error on a close mid-frame. *)

val recv : ?session:Auth.session -> t -> Frame.t
(** The next frame, waiting for the socket only while no whole frame is
    buffered.  Same errors as {!take} and {!fill}. *)

(** {1 Syscall counters} *)

val writes : t -> int
(** [write] calls made by {!flush} so far, refused ones included. *)

val reads : t -> int
(** [read] calls made by {!fill} and {!recv} so far. *)

val capacity : t -> int
(** Current size of the input buffer. *)
