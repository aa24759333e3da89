(** Multi-stream plumbing Ejects built from the paper's primitives.

    §5 establishes that read-only transput has free fan-in, no fan-out,
    and that channel identifiers restore fan-out.  These are the
    resulting library components:

    - {!tee}: one upstream duplicated onto [m] output channels —
      read-only fan-out done the paper's way (each consumer is told its
      own channel).
    - {!merge}: [m] upstreams combined onto one output channel —
      read-only fan-in packaged as a stage.
    - {!split}: one upstream demultiplexed onto two channels by a
      predicate — the multi-output "impure filter", of which a
      report-emitting filter is the special case.
    - {!zip}: two upstreams paired item-by-item, ending with the
      shorter — only expressible at all because read-only consumers
      control {e when} each input advances.

    Every stage reads its upstreams one item per Transfer. *)

module Value = Eden_kernel.Value
module Kernel = Eden_kernel.Kernel
module Uid = Eden_kernel.Uid

val tee : Kernel.t -> ?capacity:int -> upstream:Uid.t -> channels:Channel.t list -> unit -> Uid.t
(** Every item read from [upstream]'s {!Channel.output} is written to
    {e every} listed channel; a slow consumer therefore back-pressures
    the rest (capacity softens this).
    @raise Invalid_argument on an empty or duplicate channel list. *)

(** Merge policies: [Arrival] forwards items as their sources yield
    them (source order preserved within a source); [Round_robin] takes
    one item per source in turn, dropping exhausted sources out of the
    rotation. *)
type merge_policy = Arrival | Round_robin

val merge :
  Kernel.t ->
  ?capacity:int ->
  ?policy:merge_policy ->
  upstreams:(Uid.t * Channel.t) list ->
  unit ->
  Uid.t
(** Output on {!Channel.output}; ends when all upstreams have ended.
    @raise Invalid_argument on an empty upstream list. *)

val split :
  Kernel.t ->
  ?capacity:int ->
  upstream:Uid.t ->
  pred:(Value.t -> bool) ->
  accept:Channel.t ->
  reject:Channel.t ->
  unit ->
  Uid.t
(** Items of [upstream]'s {!Channel.output} satisfying [pred] go to
    [accept], the rest to [reject]; both channels need a consumer (or
    sufficient capacity) for the stage to drain. *)

val zip : Kernel.t -> left:Uid.t * Channel.t -> right:Uid.t * Channel.t -> unit -> Uid.t
(** Pairs [(l, r)] as {!Value.pair} on {!Channel.output}, with no
    anticipation. *)
