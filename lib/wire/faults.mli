(** Fault injection at the framing layer.

    The simulated [Net] expresses drop/delay/partition faults; on the
    real transport the equivalent hook sits between frame construction
    and [Unix.write].  A [Faults.t] consumes one scripted event per
    data frame offered and returns the action to take, charging the
    same meter buckets as the simulator so chaos tables line up:

    - a frame offered while the injector is partitioned is dropped and
      charged to [dropped_partition] {e without} consuming a script
      event — it never reached the medium;
    - a [Lose] event drops the frame and charges [dropped_loss];
    - a [Cut] event drops it and charges [dropped_partition];
    - a [Slow d] event delivers after sleeping [d] seconds.

    Scripts come from explicit lists or from an [Eden_check] replay
    trace via {!of_events}: the n-th net.loss decision in the trace
    governs the n-th data frame on the wire, which is what lets a
    minimized replay file found in simulation reproduce on sockets. *)

module Net = Eden_net.Net

type action = Pass | Drop | Delay of float
type event = Ok | Lose | Cut | Slow of float

type t

val none : unit -> t
(** Clean link: every frame passes (an exhausted script also passes). *)

val of_script : event list -> t

val of_events : (string * int) list -> t
(** Build a script from an [Eden_check] trace's (kind, value) stream —
    picks and notes alike.  ["net.loss"] with value 1 becomes [Lose],
    value 0 becomes [Ok]; ["net.partition"] with value 1 becomes [Cut]
    (folded into the preceding loss event when the simulator emitted
    both for one frame); other kinds are ignored. *)

val partition : t -> unit
(** Cut the link until {!heal}: every offered frame drops to
    [dropped_partition], consuming no script events. *)

val heal : t -> unit

val apply : t -> size:int -> action
(** Offer one data frame of [size] wire bytes.  Returns the action and
    updates the meter. *)

val meter : t -> Net.meter
(** Same shape as the simulator's meter: [sent] counts offered frames,
    [delivered]/[dropped_loss]/[dropped_partition] how they fared,
    [bytes] the offered wire bytes. *)

val remaining : t -> int
(** Script events not yet consumed. *)
