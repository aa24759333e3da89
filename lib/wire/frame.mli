(** Length-prefixed wire frames.

    Layout (all integers big-endian), modeled on the ASoc RFC-0001
    framing (tiny fixed header, length first so a reader can always
    cut whole frames out of what it has read):

    {v
    +--------+------+-------+-----+-----+--------+=========+
    | len:u32| kind | flags | src | dst | seq:u32| payload |
    +--------+------+-------+-----+-----+--------+=========+
        4       1      1      1     1       4      len - 8
    v}

    [len] counts every byte after the length word itself (header tail +
    payload), so the minimum frame is 12 bytes on the wire.  [src] and
    [dst] are shard indices: every socket joins exactly two shards, and
    a frame that names another pair is refused.  [seq] carries the
    request id for [Request]/[Reply] and a sender sequence number for
    one-way traffic.

    There is no handshake frame: every socket is made by the parent
    before it forks ({!Transport.pair}), so both ends know from birth
    which two shards the socket joins.

    Every decoder error path — truncated header, hostile length, unknown
    kind — raises [Value.Protocol_error]. *)

module Value = Eden_kernel.Value

type kind = Request | Reply | Idle | Shutdown | Stats

val kind_name : kind -> string

val kind_code : kind -> int
(** The wire byte for the kind, 3 to 7 — also what {!Auth} MACs cover,
    so a frame cannot be replayed as a different kind. *)

type header = { kind : kind; flags : int; src : int; dst : int; seq : int }
type t = { hdr : header; payload : string }

val flag_mac : int
(** Flag bit 2: the payload ends in an 8-byte keyed MAC trailer sealed
    by {!Auth.seal}; strip with {!Auth.open_} before parsing. *)

val header_bytes : int
(** Bytes of header after the length word (8). *)

val max_payload : int
(** Hard cap on payload bytes (16 MiB); a length prefix above
    [header_bytes + max_payload] is rejected before any allocation. *)

val make : kind:kind -> ?flags:int -> src:int -> dst:int -> ?seq:int -> string -> t
val size : t -> int
(** Total bytes on the wire including the length word. *)

val encode : t -> string

val decode : string -> t
(** Decode exactly one whole frame (length word included).
    @raise Value.Protocol_error on any malformation. *)

(** {1 Layout helpers}

    For a reader or writer that keeps frames in its own buffers
    ({!Conn}). *)

val set_header : Bytes.t -> int -> len:int -> header -> unit
(** [set_header b pos ~len h] writes the length word [len] and the
    8-byte header at [pos] — the first 12 bytes of a frame. *)

val get_header : string -> int -> header
(** The header whose 8 bytes start at [pos] (just past the length
    word).  @raise Value.Protocol_error on an unknown kind. *)

val length_word : string -> int -> int
(** The length word at [pos], validated: below the header size or above
    [header_bytes + max_payload] is a [Value.Protocol_error], raised
    before anyone sizes a buffer by it. *)

(** {1 Unbuffered blocking socket IO}

    One frame per call, with no read-ahead, for simple tools and
    measurements; data traffic goes through a {!Conn}. *)

val write : Unix.file_descr -> t -> unit
(** Write one whole frame; handles short writes. *)

val read : Unix.file_descr -> t
(** Read exactly one frame.
    @raise End_of_file on a clean close at a frame boundary.
    @raise Value.Protocol_error on a mid-frame close or malformed
    header. *)
