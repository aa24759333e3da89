(** Authenticated wire sessions — what remains of the ASoc RFC-0002
    three-layer model once every socket is made before the fork.

    Layer 1 — {e community} (namespace): every shard of a run belongs to
    one community, a shared-key namespace.  Its [id] names it in the
    configuration and does not travel on the wire: every socket is made
    before the fork, so no process has to pick a key for a peer it has
    not met.

    Layer 2 — {e keyed MAC}: every data frame is sealed with an 8-byte
    SipHash-2-4 trailer ({!seal} / {!open_}) under the community key,
    which also covers a per-direction counter — a captured frame re-sent
    later fails as a {e replay}, not just a bad MAC.

    Layer 3 — {e session token}: every socket has a token that both of
    its ends derive on their own from the community key and a nonce
    drawn for the run — {!mint_token} for the hub's socket to a leaf,
    {!link_token} for a leaf-to-leaf link — and mix into every MAC,
    binding frames to that socket rather than to the long-lived key.

    Plain, unsealed sockets remain the default everywhere — benchmarks
    compare the two paths (experiment A1). *)

type community = { id : int64; key : string }
(** A namespace and its 16-byte secret key.  The [id] labels the
    namespace for whoever configures a run; nothing sends it. *)

val community : id:int64 -> key:string -> community
(** @raise Invalid_argument unless [key] is exactly 16 bytes. *)

val siphash : key:string -> string -> int64
(** SipHash-2-4 of the message under a 16-byte key, computed by a C
    stub.  This is a MAC for protocol integrity, not a general-purpose
    crypto library.  @raise Invalid_argument on a key that is not 16
    bytes. *)

val siphash_prefixed : key:string -> prefix:string -> string -> int64
(** [siphash ~key (prefix ^ msg)] without building the concatenation —
    how data frames are sealed.  @raise Invalid_argument unless
    [prefix] is a whole number of 8-byte words. *)

(** {1 Session tokens} *)

val mint_token : community -> shard:int -> nonce:int64 -> int64
(** The session token of the hub's socket to leaf [shard], derived
    from the community key, the shard and the run nonce, so the hub and
    the forked leaf agree on it without exchanging a frame. *)

val link_token : community -> nonce:int64 -> int -> int -> int64
(** The session token of the leaf-to-leaf link between two shards,
    derived from the community key, the run nonce and the two shard
    indices (in either order), so both ends agree without exchanging a
    frame.  Distinct from every {!mint_token} of the run and from every
    other link's. *)

(** {1 Data-frame sealing} *)

type session
(** One direction-pair of counters plus the key material of one end
    of an authenticated socket.  Not shared between sockets. *)

val session : community -> token:int64 -> session

val seal : session -> Frame.t -> Frame.t
(** Append the 8-byte MAC trailer (over token, send counter, header
    and payload), set [flag_mac], bump the send counter. *)

val seal_mac : session -> Frame.header -> string -> pos:int -> len:int -> int64
(** The trailer {!seal} would append to a frame with this header and
    the payload [s[pos, pos+len)], computed where the payload lies; bumps
    the send counter.  What a buffered connection uses to seal a frame
    already encoded in its output buffer. *)

val open_sub : session -> Frame.header -> string -> pos:int -> len:int -> Frame.header
(** {!open_} of a sealed payload lying at [s[pos, pos+len)], trailer
    included: verifies it in place and returns the header without
    [flag_mac]; the opened payload is the first [len - 8] bytes.  Same
    errors and counter discipline as {!open_}. *)

val open_ : session -> Frame.t -> Frame.t
(** Verify and strip the trailer, bump the receive counter.
    @raise Eden_kernel.Value.Protocol_error on a missing trailer, a
    MAC mismatch, or a frame whose MAC matches an {e earlier} counter
    — a replayed frame, reported as such. *)
