(** Authenticated wire sessions — the ASoc RFC-0002 three-layer model.

    Layer 1 — {e community} (namespace) id: every shard belongs to a
    community, a shared-key namespace; the hello names it in clear so
    the hub can pick the verification key.

    Layer 2 — {e keyed MAC}: handshake frames carry a SipHash-2-4 MAC
    over header and payload under the community key, so a forged or
    bit-flipped handshake is rejected before any state is built; after
    the handshake every data frame is sealed with an 8-byte MAC
    trailer ({!seal} / {!open_}) that also covers a per-direction
    counter — a captured frame re-sent later fails as a {e replay},
    not just a bad MAC.

    Layer 3 — {e session token}: the welcome carries a per-connection
    token derived from the community key and the hello nonce; both
    sides mix it into every data-frame MAC, binding frames to this
    connection rather than to the long-lived community key.  A
    leaf-to-leaf link, made by the parent before it forks, skips the
    handshake: both ends derive its token with {!link_token}.

    The unauthenticated version-1 handshake remains the default
    everywhere — benchmarks compare the two paths (experiment A1). *)

type community = { id : int64; key : string }
(** A namespace and its 16-byte secret key. *)

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

(** {1 Handshake} *)

val hello : community -> shard:int -> nonce:int64 -> Frame.t
(** Authenticated hello: base 16-byte handshake payload, then
    community id, a zero token slot, and the MAC ([flag_auth] set). *)

val welcome : community -> shard:int -> nonce:int64 -> token:int64 -> Frame.t

val mint_token : community -> shard:int -> nonce:int64 -> int64
(** The per-connection session token the hub issues: derived
    deterministically from the community key, shard and hello nonce,
    so forked processes that share the key agree without another
    round trip. *)

val link_token : community -> nonce:int64 -> int -> int -> int64
(** The session token of the leaf-to-leaf link between two shards,
    derived from the community key, the run nonce and the two shard
    indices (in either order), so both ends agree without a handshake.
    Distinct from every {!mint_token} of the run and from every other
    link's. *)

val verify_hello :
  lookup:(int64 -> community option) -> Frame.t -> (int * int64 * community, string) result
(** Check an authenticated hello: frame shape, magic/version, [lookup]
    of the claimed community id, and the MAC.  [Ok (shard, nonce,
    community)] on success; [Error reason] never raises — a hostile
    handshake must not crash the shard process. *)

val verify_welcome :
  community -> expect_nonce:int64 -> Frame.t -> (int64, string) result
(** Leaf-side check of the authenticated welcome; [Ok token].  The
    nonce echo must match the hello's — a welcome captured from
    another connection fails here. *)

(** {1 Data-frame sealing} *)

type session
(** One direction-pair of counters plus the key material of an
    established authenticated connection.  Not shared between
    connections. *)

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

val sent : session -> int
val received : session -> int
