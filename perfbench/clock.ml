(* Monotonic time as float nanoseconds: exact below 2^53 ns (104 days of
   uptime) and comparable across the processes of one host, so a leaf's
   stamp can be subtracted from the hub's. *)
let now_ns () = Int64.to_float (Monotonic_clock.now ())

(* CPU seconds of this process and of its reaped children (the wire
   leaves, once [Cluster.run] has waited for them). *)
let cpu () =
  let t = Unix.times () in
  (t.Unix.tms_utime +. t.Unix.tms_stime, t.Unix.tms_cutime +. t.Unix.tms_cstime)
