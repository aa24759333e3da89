(** Flow-control configuration for a stream endpoint.

    A {!t} bundles the two orthogonal knobs swept by bench experiment
    B1:

    - {b batching} — how many items one [Invoke] carries.  [Fixed n]
      pins the batch; [Adaptive p] lets an {!Aimd} controller move it
      between [p.min_batch] and [p.max_batch] in response to
      backpressure; [Chunked bytes] switches the endpoint to the
      zero-copy chunked plane — each exchange carries one flat
      [Value.Chunk] of roughly [bytes] payload bytes instead of a
      batch of boxed items.
    - {b credit} — how many exchanges may be outstanding at once
      ({!Credit.limit}).

    [legacy] ([Fixed 1] × [Window 1]) is the paper's one-item
    rendezvous and the behavioural baseline every other configuration
    must be observationally equivalent to. *)

type batching = Fixed of int | Adaptive of Aimd.params | Chunked of int

type t = { batching : batching; credit : Credit.limit }

val legacy : t
(** [Fixed 1] × [Window 1]: one item per invocation, strict rendezvous
    — the unbatched baseline. *)

val fixed : ?credit:Credit.limit -> int -> t
(** [fixed n] is [Fixed n] batching (default credit [Window 1]).
    @raise Invalid_argument when [n < 1]. *)

val adaptive : ?credit:Credit.limit -> ?params:Aimd.params -> unit -> t
(** AIMD-controlled batching (default params {!Aimd.default_params},
    default credit [Window 1]). *)

val default_chunk_bytes : int
(** 64 KiB. *)

val chunked : ?credit:Credit.limit -> ?chunk_bytes:int -> unit -> t
(** The chunked data plane: one flat byte chunk of about [chunk_bytes]
    (default {!default_chunk_bytes}) per exchange.  A pusher coalesces
    pending chunk items up to the threshold with zero-copy concat; a
    puller receives one chunk per seq-stamped transfer.
    @raise Invalid_argument when [chunk_bytes < 1]. *)

val initial_batch : t -> int
(** The batch the first exchange uses. *)

val max_batch : t -> int
(** Upper bound on any batch this config can produce. *)

val controller : t -> Aimd.t option
(** A fresh controller for [Adaptive], [None] for [Fixed]. *)

val credit : t -> Credit.t
(** A fresh credit window for this config. *)

val is_legacy : t -> bool
(** [true] iff the config is exactly one item per rendezvous with no
    pipelining — endpoints use this to stay on the seed code path.
    Never true for a [Chunked] config: the chunked plane must not be
    silently downgraded to the boxed rendezvous. *)

val is_chunked : t -> bool

val chunk_bytes : t -> int option
(** The coalescing threshold for a [Chunked] config, [None] otherwise. *)
