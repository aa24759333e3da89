(** Seeded-mutant workloads that validate the checker itself.

    Each workload is a small concurrent scenario with a [~mutant]
    switch: [mutant:false] is a correct implementation whose property
    holds under {e every} schedule; [mutant:true] re-introduces a
    classic bug that the pure FIFO schedule cannot expose (all
    workloads pass [Check.fifo_passes] in both variants) but that any
    exploring policy must find within a quick budget:

    - {!lossy_ack}: a sender that advances its sequence number without
      checking the ack — correct only while the link never drops.
    - {!credit_race}: a widened credit window — the sender checks
      availability, yields, then ignores the result of [Credit.take],
      breaking the in-flight bound under an adverse interleaving.
    - {!checkpoint_replay}: a producer that never advances its
      checkpoint — a crash makes it re-deliver from the beginning,
      breaking exactly-once delivery.

    The mutation suite (test/ and the CI [check] job) requires the
    explorer to detect all three mutants, and each minimized replay to
    reproduce bit-identically. *)

val lossy_ack : mutant:bool -> Check.ctl -> unit
(** Property: the receiver sees sequence 0..3 exactly, in order, despite
    decide-driven link loss (kind ["net.loss"], at most 3 drops). *)

val mutants : (string * (mutant:bool -> Check.ctl -> unit)) list
(** All three, with stable names (["lossy_ack"]; ["credit_race"];
    ["checkpoint_replay"]) used by tests, bench C1 and CI. *)
