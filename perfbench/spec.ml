(* The metrics the benchmark reports.  BENCHMARK.json at the root of the
   repository lists the same names, units, directions and bounds. *)

type better = Lower | Higher

type e2e = { name : string; unit : string; better : better; bound : float }

(* [bound] is the share of the base median by which a metric may worsen
   before a change counts as a regression.  Each is about three times
   the widest run-to-run spread (quartile distance over median) that
   ten seeded runs showed on any workload of a 2 vCPU VM, capped at
   0.25: the wire workloads' three processes share two CPUs, and p99
   and the sub-millisecond launches are the noisiest.  The invocation
   count is exact, so any real change to it exceeds its bound. *)
let end_to_end =
  [
    { name = "setup_s"; unit = "s"; better = Lower; bound = 0.25 };
    { name = "mb_per_s"; unit = "MB/s"; better = Higher; bound = 0.15 };
    { name = "items_per_s"; unit = "1/s"; better = Higher; bound = 0.15 };
    { name = "latency_p50_us"; unit = "us"; better = Lower; bound = 0.20 };
    { name = "latency_p99_us"; unit = "us"; better = Lower; bound = 0.25 };
    { name = "cpu_us_per_item"; unit = "us"; better = Lower; bound = 0.20 };
    { name = "invocations_per_item"; unit = "count"; better = Lower; bound = 0.01 };
    { name = "heap_peak_mb"; unit = "MB"; better = Lower; bound = 0.25 };
  ]

(* Per-layer metrics every workload reports in its traced run.  Layers a
   workload does not exercise read 0 in counts and shares; times here
   are measured on every workload.  Metrics that exist on some
   workloads only are printed and written to --out, not listed here. *)
let per_layer =
  [
    ("loadgen.busy_s", "s");
    ("filters.cpu_share", "ratio");
    ("filters.items_in", "count");
    ("filters.items_out", "count");
    ("core.exchanges", "count");
    ("core.wait_us_p50", "us");
    ("flowctl.stalls", "count");
    ("flowctl.credit_takes", "count");
    ("kernel.invocations", "count");
    ("kernel.activations", "count");
    ("kernel.op_transfer", "count");
    ("kernel.op_deposit", "count");
    ("kernel.cpu_us_per_invocation", "us");
    ("sched.fibers_end", "count");
    ("sched.timers_end", "count");
    ("par.cross_messages", "count");
    ("par.cross_per_item", "count");
    ("par.hub_cpu_s", "s");
    ("par.leaf_cpu_share", "ratio");
    ("wire.bin_encode_ns_per_byte", "ns/B");
    ("wire.bin_decode_ns_per_byte", "ns/B");
    ("wire.auth_seal_ns_per_byte", "ns/B");
    ("wire.auth_open_ns_per_byte", "ns/B");
    ("wire.frame_rtt_us", "us");
    ("chunk.sink_chunks", "count");
    ("chunk.live_views_delta", "count");
    ("gc.minor_words_per_item", "count");
    ("gc.major_collections", "count");
    ("residue.cpu_share", "ratio");
    ("trace.overhead_pct", "%");
  ]

(* Metrics printed and written to --out but not in the JSON result:
   error_ratio is 0 whenever the result counts as correct, host_speed
   describes the host, and the rest exist on some workloads only. *)
let other =
  [
    ("error_ratio", "ratio");
    ("host_speed", "ratio");
    ("filters.self_s", "s");
    ("core.sink_wait_us_p50", "us");
    ("core.source_block_s", "s");
    ("core.connect_us_p50", "us");
    ("core.drain_us_p50", "us");
    ("par.leaf_cpu_s", "s");
    ("par.hub_cpu_us_per_frame", "us");
    ("par.build_s", "s");
    ("par.launch_s", "s");
    ("wire.cpu_us_per_item", "us");
    ("wire.auth_cpu_us_per_mb", "us/MB");
    ("store.bytes_per_producer", "B");
  ]

let find_e2e name = List.find_opt (fun m -> m.name = name) end_to_end
