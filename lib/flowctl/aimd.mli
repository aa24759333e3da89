(** Adaptive batch sizing: additive increase, multiplicative decrease.

    The controller owns one number — the current batch (the item count a
    [Transfer] asks for, or a [Deposit] carries) — and moves it between
    [min_batch] and [max_batch] in response to two signals:

    - {b progress} (the stream is flowing and the far side keeps up):
      widen additively by [increase];
    - {b stall} (backpressure: a short reply, a full credit window, a
      backed-up stage buffer): shrink multiplicatively by [decrease].

    This is TCP's AIMD shape applied to batch size instead of window
    size: additive probing finds the largest batch the pipeline
    sustains, multiplicative backoff yields quickly when a stage falls
    behind.  {!observe} translates a buffer-occupancy reading (from the
    {!Eden_obs.Obs.Flow} meters) into those signals through a pair of
    watermarks.

    The controller is deliberately deterministic: its trajectory is a
    pure function of the signal sequence, so a simulated run reproduces
    bit-identically under a fixed seed.

    The clamp bounds are fully parametric, and the floor may be 0: the
    same additive-increase / multiplicative-decrease shape that sizes
    batches also sizes {e replica counts} in {!Eden_elastic.Scaler},
    where [min_batch = 0] means scale-to-zero when idle.  (The field
    names keep their historical batch-flavoured spelling; read them as
    generic clamp bounds.)  Batch-sizing users go through
    {!Flowctl.adaptive}, which insists on a floor of at least 1. *)

type params = {
  min_batch : int;  (** floor, at least 0 (batch users require >= 1) *)
  max_batch : int;  (** ceiling, at least [min_batch] *)
  increase : int;  (** additive widening step, at least 1 *)
  decrease : float;  (** multiplicative shrink factor, in (0, 1) *)
  low_watermark : float;
      (** occupancy fraction at or below which {!observe} widens *)
  high_watermark : float;
      (** occupancy fraction at or above which {!observe} shrinks *)
}

val default_params : params
(** [min 1, max 64, increase 8, decrease 0.5, watermarks 0.25 / 0.75]. *)

val params :
  ?min_batch:int ->
  ?max_batch:int ->
  ?increase:int ->
  ?decrease:float ->
  ?low_watermark:float ->
  ?high_watermark:float ->
  unit ->
  params
(** Defaults as {!default_params}.  @raise Invalid_argument on a
    negative [min_batch], non-positive [increase], [max_batch < min_batch],
    [decrease] outside (0, 1), watermarks outside [0, 1] or
    [high_watermark <= low_watermark]. *)

type t

val create : ?initial:int -> params -> t
(** A fresh controller at [initial] (default [min_batch]; clamped into
    [min_batch, max_batch]). *)

val current : t -> int
(** The batch to use for the next exchange. *)

val on_progress : t -> unit
(** Additive increase, clamped at [max_batch]. *)

val on_stall : t -> unit
(** Multiplicative decrease, clamped at [min_batch]. *)

val observe : t -> occupancy:float -> unit
(** Map a downstream-occupancy fraction (0 = empty, 1 = full) onto the
    two signals: at or below [low_watermark] → {!on_progress}, at or
    above [high_watermark] → {!on_stall}, in between → hold.  Values
    are clamped into [0, 1]. *)

val widens : t -> int
(** How many {!on_progress} signals actually widened the batch. *)

val shrinks : t -> int
(** How many {!on_stall} signals actually shrank it. *)

val params_of : t -> params
