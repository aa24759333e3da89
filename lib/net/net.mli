(** Simulated interconnect.

    The Eden prototype ran on several VAXen on a 10 Mbit Ethernet; the
    paper's efficiency argument rests on inter-Eject invocations being
    much more expensive than intra-Eject communication.  This module
    supplies that regime: named nodes, per-message delivery latency
    drawn from a configurable model, optional loss and partitions for
    failure-injection tests, and counters for every message and byte.

    Delivery is a scheduled callback on the owning {!Eden_sched.Sched.t};
    the network never blocks a sender. *)

type t

type node_id = private int
(** Dense small integers; obtain them from [add_node]. *)

(** How long a message of a given size takes to arrive. *)
type latency =
  | Fixed of float  (** Constant per message. *)
  | Per_byte of { base : float; per_byte : float }
      (** [base + per_byte * size]; models a serial link. *)
  | Uniform of { lo : float; hi : float }
  | Exponential of { mean : float }

val create : ?seed:int64 -> sched:Eden_sched.Sched.t -> latency:latency -> unit -> t
(** [latency] models inter-node traffic.  Same-node traffic takes a
    fixed one tenth of its mean: staying on-node is cheap but not free. *)

val sched : t -> Eden_sched.Sched.t

val set_obs : t -> Eden_obs.Obs.t -> unit
(** Attach an observability collector: every delivered message records
    its drawn delay into the ["net.delay"] histogram and its size into
    ["net.size"].  Called once by the kernel at creation. *)

(** {1 Topology} *)

val add_node : t -> string -> node_id
val node_count : t -> int
val node_name : t -> node_id -> string

val set_link_latency : t -> node_id -> node_id -> latency -> unit
(** Overrides the default on one (symmetric) link. *)

(** {1 Failure injection} *)

val set_loss_probability : t -> float -> unit
(** Independent drop probability per inter-node message.  Same-node
    hops are exempt (like partitions): they never traverse the lossy
    medium. @raise Invalid_argument outside [0,1]. *)

val partition : t -> node_id -> node_id -> unit
(** Drops all traffic between the two nodes (symmetric) until [heal]. *)

val heal : t -> node_id -> node_id -> unit
val heal_all : t -> unit

(** {1 Sending} *)

val send : t -> src:node_id -> dst:node_id -> size:int -> (unit -> unit) -> unit
(** Delivers the callback after simulated latency, or never (counted as
    dropped) under loss or partition.  The callback runs outside any
    fiber and must not block. *)

(** {1 Metering} *)

type meter = {
  sent : int;
  delivered : int;
  dropped : int;  (** Always [dropped_loss + dropped_partition]. *)
  dropped_loss : int;  (** Dropped by the random-loss coin. *)
  dropped_partition : int;  (** Dropped by a partitioned link. *)
  bytes : int;
}
(** A message that would be eaten by both causes is charged to the
    partition only, so the sum invariant holds. *)

val meter : t -> meter
val reset_meter : t -> unit
val meter_diff : meter -> meter -> meter

val empty_meter : meter

val meter_add : meter -> meter -> meter
(** Counter-wise sum, for aggregating the networks of disjoint kernels
    (the parallel runtime's per-domain shards). *)

val pp_meter : Format.formatter -> meter -> unit
