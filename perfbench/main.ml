(* The repository benchmark.

     main.exe bench [--workload W] [--seed N] [--seconds S] [--trace 0|1]
                    [--quick] [--out FILE]
     main.exe compare BASE.json NEW.json

   [bench] runs each workload (all four unless --workload names one):
   one discarded warm-up pass, set-up samples, then measured passes
   until --seconds have elapsed, each bracketed by host-speed
   calibrations (see Speed).  Every pass checks its output against the
   oracle.  It prints every metric by name and unit, then, as the last
   line, one JSON object with the end-to-end metrics (untraced) or the
   per-layer metrics (--trace 1).  A traced run measures the untraced
   passes it needs for trace.overhead_pct first, then traced passes,
   the wire replays and the wire workloads' twins, and writes the spans
   to _trace/perfbench/<workload>.json.  --out appends the run to a
   JSON file that [compare] reads.  --quick runs every workload at tiny
   sizes, traced and untraced, with every check. *)

module Value = Eden_kernel.Value
module Cluster = Eden_par.Cluster
module Transport = Eden_wire.Transport

type cfg = { seed : int; seconds : float; trace : bool; quick : bool; out : string option }

type wire = No_wire | Plain | Authenticated

(* What the orchestrator needs from a workload. *)
type runner = {
  wire : wire;
  setup_reps : int;
  setup : unit -> float * float;  (** (build s, launch s) of one set-up *)
  pass : traced:bool -> unit -> Meas.pass;
      (** readies a pass (untimed) and returns the run to time *)
  twins : (wire * (traced:bool -> unit -> Meas.pass)) list;
      (** the same workload in process (No_wire) and over the plain
          wire (Plain), to attribute the wire's cost *)
  item : Value.t;  (** an item of typical size, for the wire replays *)
  relayed : float;  (** share of cross-shard frames that go leaf to leaf through the hub *)
  streams : bool;  (** items are whole streams (wake-streams) rather than a cluster's data *)
  store_bytes : unit -> float option;
  shm : Shm.t;
}

let wire_mode auth =
  Cluster.Wire
    {
      Cluster.wire_transport = Transport.Unix_socket;
      wire_faults = None;
      wire_auth = (if auth then Some Replay.community else None);
    }

let lines_runner cfg ~unix =
  let n = if cfg.quick then 256 else if unix then 4096 else 24576 in
  (* A launch takes about 0.3 ms in process and 2 ms with forked leaves;
     the median of many is steady where that of a few is not. *)
  let setup_reps = if unix then 21 else 51 in
  let mode = if unix then wire_mode false else Cluster.Deterministic in
  let t = Lines.prepare mode ~seed:cfg.seed ~lines:n in
  let twin = lazy (Lines.prepare Cluster.Deterministic ~seed:cfg.seed ~lines:n) in
  let mean = Array.fold_left (fun a l -> a + String.length l) 0 t.Lines.doc / n in
  {
    wire = (if unix then Plain else No_wire);
    setup_reps;
    setup = (fun () -> Lines.launch t);
    pass = Lines.pass t;
    twins =
      (if unix then [ (No_wire, fun ~traced -> Lines.pass (Lazy.force twin) ~traced) ] else []);
    item = Value.Str (String.make mean 'a');
    (* source-F1, F1-F2 and F2-F3 join leaves; F3-sink ends at the hub *)
    relayed = 0.75;
    streams = false;
    store_bytes = (fun () -> None);
    shm = t.Lines.shm;
  }

let chunks_runner cfg =
  let cut = 65536 in
  let bytes = if cfg.quick then 4 * cut else 256 * cut in
  let t = Chunks.prepare ~seed:cfg.seed ~bytes ~cut in
  let auth = wire_mode true in
  {
    wire = Authenticated;
    setup_reps = 21;
    setup = (fun () -> Chunks.launch t auth);
    pass = Chunks.pass t auth;
    twins =
      [
        (No_wire, Chunks.pass t Cluster.Deterministic);
        (Plain, Chunks.pass t (wire_mode false));
      ];
    item = Value.Chunk (Eden_chunk.Chunk.of_string (String.make cut 'a'));
    (* F1-F2 and F2-F3 join leaves; driver-F1 and F3-sink touch the hub *)
    relayed = 0.5;
    streams = false;
    store_bytes = (fun () -> None);
    shm = t.Chunks.shm;
  }

let wake_runner cfg =
  let producers, per_pass = if cfg.quick then (4_000, 500) else (1_000_000, 20_000) in
  let t = Wake.prepare ~seed:cfg.seed ~producers ~per_pass in
  {
    wire = No_wire;
    (* Each set-up makes the whole population, and so does every pass
       after the first, so a run times many more creations than these. *)
    setup_reps = 3;
    setup = (fun () -> (Wake.create t, 0.));
    pass = Wake.pass t;
    twins = [];
    item = Wake.item_value t;
    relayed = 0.;
    streams = true;
    store_bytes = (fun () -> Some t.Wake.store_bytes);
    shm = t.Wake.shm;
  }

let workloads =
  [
    ("ro-lines-inproc", fun cfg -> lines_runner cfg ~unix:false);
    ("ro-lines-unix", fun cfg -> lines_runner cfg ~unix:true);
    ("wo-chunks-auth", chunks_runner);
    ("wake-streams", wake_runner);
  ]

(* --- Measurement ---------------------------------------------------- *)

let median_of f ps = Stats.median (Array.of_list (List.map f ps))
let sum f ps = List.fold_left (fun a p -> a +. f p) 0. ps
let isum f ps = List.fold_left (fun a p -> a + f p) 0 ps
let pooled f ps = Array.concat (List.map f ps)
let fi = float_of_int

let heap_peak_mb () = fi ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

(* One pass, its timed run bracketed by host-speed calibrations. *)
let timed_pass r ~traced =
  let run = r.pass ~traced in
  let p, speed = Speed.bracket run in
  { p with Meas.speed }

(* Measured passes until [budget] seconds have passed, at least
   [min_passes] ran and the pooled latency samples support p99 (ten
   beyond it).  Also returns the peak heap once [min_passes] passes
   have run: a fixed amount of work, so the peak does not depend on how
   many passes the host's speed allowed. *)
let passes r cfg ~traced ~budget =
  let min_passes = if cfg.quick then 1 else 3 in
  let min_samples = if cfg.quick then 0 else 1010 in
  let t0 = Clock.now_ns () in
  let heap = ref 0. in
  let rec go acc n samples =
    if n = min_passes then heap := heap_peak_mb ();
    let elapsed = (Clock.now_ns () -. t0) *. 1e-9 in
    if n >= min_passes && samples >= min_samples && elapsed >= budget then List.rev acc
    else
      let p = timed_pass r ~traced in
      go (p :: acc) (n + 1) (samples + Array.length p.Meas.lat)
  in
  let ps = go [] 0 0 in
  (ps, !heap)

(* Rates and times at the reference host's speed. *)
let rate f p = f p /. p.Meas.wall /. p.Meas.speed
let items_rate = rate (fun p -> fi p.Meas.items)

let end_to_end ~setup ~heap ps =
  let lat = pooled (fun p -> Array.map (fun l -> l *. p.Meas.speed) p.Meas.lat) ps in
  [
    ("setup_s", setup);
    ("mb_per_s", median_of (rate (fun p -> fi p.Meas.bytes /. 1e6)) ps);
    ("items_per_s", median_of items_rate ps);
    ("latency_p50_us", Stats.percentile lat 50.);
    ("latency_p99_us", Stats.percentile lat 99.);
    ( "cpu_us_per_item",
      median_of (fun p -> p.Meas.cpu /. fi p.Meas.items *. 1e6 *. p.Meas.speed) ps );
    ("invocations_per_item", median_of (fun p -> fi p.Meas.invocations /. fi p.Meas.items) ps);
    ("heap_peak_mb", heap);
  ]

(* In process, everything inside the run that is neither bench code nor
   a filter is kernel, scheduler, core transput or the proxy inbox. *)
let kernel_s ps = sum (fun p -> p.Meas.wall -. p.Meas.loadgen -. p.Meas.filters) ps

(* Per-layer metrics from the traced passes [tr], the wire twins and
   the replays.  Returns (metrics every workload reports, metrics of
   this workload only). *)
let per_layer r ~untraced ~tr ~twins ~(rp : Replay.t) ~builds ~launches =
  let cpu = sum (fun p -> p.Meas.cpu) tr and items = isum (fun p -> p.Meas.items) tr in
  let invocations = isum (fun p -> p.Meas.invocations) tr in
  let loadgen = sum (fun p -> p.Meas.loadgen) tr and filters = sum (fun p -> p.Meas.filters) tr in
  let leaf_cpu = sum (fun p -> p.Meas.leaf_cpu) tr in
  let hub_cpu = cpu -. leaf_cpu in
  let cross = isum (fun p -> p.Meas.cross) tr in
  let waits = pooled (fun p -> p.Meas.waits) tr in
  let per_item ps = sum (fun p -> p.Meas.cpu) ps /. fi (isum (fun p -> p.Meas.items) ps) in
  let twin w = List.assoc_opt w twins in
  let us_per_inv ps = kernel_s ps /. fi (isum (fun p -> p.Meas.invocations) ps) *. 1e6 in
  let kernel_us =
    match (r.wire, twin No_wire) with
    | No_wire, _ -> us_per_inv tr
    | _, Some ps -> us_per_inv ps
    | _, None -> nan
  in
  (* Wire CPU the replays account for.  A cross-shard invocation is two
     frames, a request and a reply, one of them carrying the item: one
     replayed round trip, plus encoding, decoding and (authenticated)
     sealing and opening the item's bytes.  An invocation between two
     leaves takes a second hop through the hub, which reads and rewrites
     both frames (opening and resealing them when authenticated) without
     decoding them. *)
  let auth = r.wire = Authenticated in
  let wire_est =
    if r.wire = No_wire then 0.
    else
      let bytes = fi rp.Replay.item_bytes *. 1e-9 in
      let mac = if auth then rp.Replay.seal_ns_per_byte +. rp.Replay.open_ns_per_byte else 0. in
      let rtt = rp.Replay.frame_rtt_us *. 1e-6 in
      fi cross /. 2.
      *. ((bytes *. (rp.Replay.encode_ns_per_byte +. rp.Replay.decode_ns_per_byte +. mac))
         +. rtt
         +. (r.relayed *. ((bytes *. mac) +. rtt)))
  in
  (* CPU that nothing above accounts for.  In process the kernel is what
     remains of the runs' wall time, so the residue is CPU minus wall
     time: negative while the process waited for a CPU.  Over the wire
     the kernel is charged at its in-process twin's cost per invocation
     and the wire at the replays' estimate, so the residue is wire cost
     the replays miss, such as the hub's select loop and the scheduling
     of three processes on shared CPUs. *)
  let residue =
    if r.wire = No_wire then cpu -. sum (fun p -> p.Meas.wall) tr
    else cpu -. (loadgen +. filters +. (fi invocations *. kernel_us *. 1e-6) +. wire_est)
  in
  let rate ps = median_of items_rate ps in
  let common =
    [
      ("loadgen.busy_s", loadgen);
      ("filters.cpu_share", filters /. cpu);
      ("filters.items_in", fi (isum (fun p -> p.Meas.items_in) tr));
      ("filters.items_out", fi (isum (fun p -> p.Meas.items_out) tr));
      ("core.exchanges", fi (isum (fun p -> p.Meas.exchanges) tr));
      ("core.wait_us_p50", Stats.percentile waits 50.);
      ("flowctl.stalls", fi (isum (fun p -> p.Meas.stalls) tr));
      ("flowctl.credit_takes", fi (isum (fun p -> p.Meas.credit_takes) tr));
      ("kernel.invocations", fi invocations);
      ("kernel.activations", fi (isum (fun p -> p.Meas.activations) tr));
      ("kernel.op_transfer", fi (isum (fun p -> p.Meas.op_transfer) tr));
      ("kernel.op_deposit", fi (isum (fun p -> p.Meas.op_deposit) tr));
      ("kernel.cpu_us_per_invocation", kernel_us);
      ("sched.fibers_end", fi (isum (fun p -> p.Meas.fibers_end) tr));
      ("sched.timers_end", fi (isum (fun p -> p.Meas.timers_end) tr));
      ("par.cross_messages", fi cross);
      ("par.cross_per_item", fi cross /. fi items);
      ("par.hub_cpu_s", hub_cpu);
      ("par.leaf_cpu_share", leaf_cpu /. cpu);
      ("wire.bin_encode_ns_per_byte", rp.Replay.encode_ns_per_byte);
      ("wire.bin_decode_ns_per_byte", rp.Replay.decode_ns_per_byte);
      ("wire.auth_seal_ns_per_byte", rp.Replay.seal_ns_per_byte);
      ("wire.auth_open_ns_per_byte", rp.Replay.open_ns_per_byte);
      ("wire.frame_rtt_us", rp.Replay.frame_rtt_us);
      ("chunk.sink_chunks", fi (isum (fun p -> p.Meas.sink_chunks) tr));
      ("chunk.live_views_delta", fi (isum (fun p -> p.Meas.views_delta) tr));
      ("gc.minor_words_per_item", sum (fun p -> p.Meas.minor_words) tr /. fi items);
      ("gc.major_collections", fi (isum (fun p -> p.Meas.major_gcs) tr));
      ("residue.cpu_share", residue /. cpu);
      ("trace.overhead_pct", (rate untraced -. rate tr) /. rate untraced *. 100.);
    ]
  in
  let opt cond name v = if cond then [ (name, v ()) ] else [] in
  let wake = r.streams in
  let p50 f () = Stats.percentile (pooled f tr) 50. in
  let only =
    opt (filters > 0.) "filters.self_s" (fun () -> filters)
    @ opt (r.wire <> Authenticated && not wake) "core.sink_wait_us_p50"
        (p50 (fun p -> p.Meas.waits))
    @ opt (r.wire = Authenticated) "core.source_block_s" (fun () ->
          sum (fun p -> Array.fold_left ( +. ) 0. p.Meas.waits) tr *. 1e-6)
    @ opt wake "core.connect_us_p50" (p50 (fun p -> p.Meas.connects))
    @ opt wake "core.drain_us_p50" (p50 (fun p -> p.Meas.drains))
    @ opt (r.wire <> No_wire) "par.leaf_cpu_s" (fun () -> leaf_cpu)
    @ opt (r.wire <> No_wire) "par.hub_cpu_us_per_frame" (fun () -> hub_cpu /. fi cross *. 1e6)
    @ opt (not wake) "par.build_s" (fun () -> Stats.median builds)
    @ opt (not wake) "par.launch_s" (fun () -> Stats.median launches)
    @ (match twin No_wire with
      | Some ps when r.wire <> No_wire ->
          [ ("wire.cpu_us_per_item", (per_item tr -. per_item ps) *. 1e6) ]
      | _ -> [])
    @ (match twin Plain with
      | Some ps when auth ->
          let per_mb ps = sum (fun p -> p.Meas.cpu) ps /. fi (isum (fun p -> p.Meas.bytes) ps) in
          [ ("wire.auth_cpu_us_per_mb", (per_mb tr -. per_mb ps) *. 1e12) ]
      | _ -> [])
    @ match r.store_bytes () with Some b -> [ ("store.bytes_per_producer", b) ] | None -> []
  in
  (common, only)

(* --- Reporting ------------------------------------------------------ *)

let unit_of name =
  match Spec.find_e2e name with
  | Some m -> m.Spec.unit
  | None -> List.assoc name (Spec.per_layer @ Spec.other)

let print_metrics ms =
  List.iter (fun (k, v) -> Printf.printf "  %-30s %16.6g %s\n" k v (unit_of k)) ms

let result_json ~correct ~attempted ~failed ms =
  Json.Obj
    [
      ("correct", Json.Bool correct);
      ("attempted", Json.Num (fi attempted));
      ("failed", Json.Num (fi failed));
      ( "metrics",
        Json.Obj
          (List.map
             (fun (k, v) -> (k, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str (unit_of k)) ]))
             ms) );
    ]

let append_out path ~workload ~seed ~trace ~correct ms =
  let runs =
    if Sys.file_exists path then
      match Json.member "runs" (Json.read_file path) with Some (Json.Arr l) -> l | _ -> []
    else []
  in
  let run =
    Json.Obj
      [
        ("workload", Json.Str workload);
        ("seed", Json.Num (fi seed));
        ("trace", Json.Bool trace);
        ("correct", Json.Bool correct);
        ("metrics", Json.Obj (List.map (fun (k, v) -> (k, Json.Num v)) ms));
      ]
  in
  let oc = open_out_bin path in
  output_string oc (Json.to_string (Json.Obj [ ("runs", Json.Arr (runs @ [ run ])) ]));
  output_char oc '\n';
  close_out oc

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

(* Output guards every pass must meet, as (description, holds). *)
let guards r all =
  let invs = List.sort_uniq compare (List.map (fun p -> p.Meas.invocations) all) in
  [
    ("invocations identical in every pass", List.length invs = 1);
    ("no stray fibers after a pass", isum (fun p -> p.Meas.fibers_end) all = 0);
    ("no pending timers after a pass", isum (fun p -> p.Meas.timers_end) all = 0);
    ( "chunk views balanced, but for the handles the hub wrote to the wire",
      List.for_all
        (fun p -> p.Meas.views_delta = 0 || p.Meas.views_delta = p.Meas.hub_wire_chunks)
        all );
    ( "chunked plane not downgraded",
      r.wire <> Authenticated || List.for_all (fun p -> p.Meas.sink_chunks > 0) all );
  ]

let run_workload cfg (name, make) =
  let r = make cfg in
  Printf.printf "== %s (seed %d%s)\n%!" name cfg.seed (if cfg.trace then ", traced" else "");
  Shm.reset_spans r.shm;
  (* The warm-up pass comes first, so set-up is timed in the same
     steady state as the passes rather than against a cold heap. *)
  if not cfg.quick then ignore ((r.pass ~traced:false) ());
  let samples, setup_speed =
    Speed.bracket (fun () -> Array.init r.setup_reps (fun _ -> r.setup ()))
  in
  let builds = Array.map fst samples and launches = Array.map snd samples in
  let setup_samples = Array.map (fun (b, l) -> (b +. l) *. setup_speed) samples in
  let budget = if cfg.quick then 0. else if cfg.trace then cfg.seconds /. 2. else cfg.seconds in
  let untraced, heap = passes r cfg ~traced:false ~budget in
  (* Passes that made a fresh population timed one more set-up each. *)
  let setup =
    Stats.median
      (Array.append setup_samples
         (Array.of_list
            (List.filter_map
               (fun p -> if p.Meas.setup > 0. then Some (p.Meas.setup *. p.Meas.speed) else None)
               untraced)))
  in
  let e2e = end_to_end ~setup ~heap untraced in
  let host_speed = median_of (fun p -> p.Meas.speed) untraced in
  let traced_ps, layers =
    if not cfg.trace then ([], ([], []))
    else begin
      Shm.reset_spans r.shm;
      let tr, _ = passes r cfg ~traced:true ~budget in
      let rp = Replay.run r.shm ~quick:cfg.quick r.item in
      let dir = Filename.concat "_trace" "perfbench" in
      mkdir_p dir;
      let path = Filename.concat dir (name ^ ".json") in
      Shm.write_chrome r.shm path;
      Printf.printf "  spans: %s (%d dropped)\n" path (Shm.dropped r.shm);
      let twins =
        List.map
          (fun (w, pass) ->
            if not cfg.quick then ignore ((pass ~traced:true) ());
            (w, List.init (if cfg.quick then 1 else 2) (fun _ -> (pass ~traced:true) ())))
          r.twins
      in
      let common, only = per_layer r ~untraced ~tr ~twins ~rp ~builds ~launches in
      (tr @ List.concat_map snd twins, (common, only))
    end
  in
  let all = untraced @ traced_ps in
  let attempted = isum (fun p -> p.Meas.items) all and failed = isum (fun p -> p.Meas.errors) all in
  let checks = guards r all in
  let correct = failed = 0 && List.for_all snd checks in
  Printf.printf "  %d measured passes, %d items, %d failed, latency samples %d (p%g supported)\n"
    (List.length untraced)
    (isum (fun p -> p.Meas.items) untraced)
    failed
    (Array.length (pooled (fun p -> p.Meas.lat) untraced))
    (Option.value ~default:0.
       (Stats.highest_supported (Array.length (pooled (fun p -> p.Meas.lat) untraced))));
  List.iter (fun (what, ok) -> if not ok then Printf.printf "  GUARD FAILED: %s\n" what) checks;
  let error_ratio =
    fi (isum (fun p -> p.Meas.errors) untraced) /. fi (isum (fun p -> p.Meas.items) untraced)
  in
  Printf.printf
    " end to end (times at the reference host's speed; this host ran at %.3f of it, %.3f \
     during set-up):\n"
    host_speed setup_speed;
  print_metrics (e2e @ [ ("error_ratio", error_ratio) ]);
  let reported =
    match layers with
    | [], [] -> e2e
    | common, only ->
        print_endline " per layer:";
        print_metrics common;
        print_endline " this workload only:";
        print_metrics only;
        common
  in
  Option.iter
    (fun path ->
      let ms =
        match layers with
        | [], [] -> e2e @ [ ("error_ratio", error_ratio); ("host_speed", host_speed) ]
        | c, o -> c @ o
      in
      append_out path ~workload:name ~seed:cfg.seed ~trace:cfg.trace ~correct ms)
    cfg.out;
  let listed =
    if cfg.trace then List.map fst Spec.per_layer
    else List.map (fun m -> m.Spec.name) Spec.end_to_end
  in
  if List.map fst reported <> listed then failwith "bench: reported metrics differ from Spec";
  print_endline (Json.to_string (result_json ~correct ~attempted ~failed reported));
  correct

let usage =
  "usage: main.exe bench [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--quick] [--out \
   FILE]\n\
  \       main.exe compare BASE.json NEW.json"

let bench args =
  let workload = ref None and seed = ref 1 and seconds = ref 15. and trace = ref 0 in
  let quick = ref false and out = ref None in
  let spec =
    [
      ("--workload", Arg.String (fun w -> workload := Some w), "W  one of the workloads");
      ("--seed", Arg.Set_int seed, "N  workload seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "S  measured seconds per run (default 15)");
      ("--trace", Arg.Set_int trace, "0|1  traced run: per-layer metrics");
      ("--quick", Arg.Set quick, " tiny sizes, traced and untraced, every check");
      ("--out", Arg.String (fun f -> out := Some f), "FILE  append the run to FILE");
    ]
  in
  (try
     Arg.parse_argv ~current:(ref 0) (Array.append [| "bench" |] args) spec
       (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
       usage
   with Arg.Bad m | Arg.Help m ->
     prerr_string m;
     exit 2);
  let chosen =
    match !workload with
    | None -> workloads
    | Some w -> (
        match List.assoc_opt w workloads with
        | Some f -> [ (w, f) ]
        | None ->
            Printf.eprintf "unknown workload %S; workloads: %s\n" w
              (String.concat ", " (List.map fst workloads));
            exit 2)
  in
  if !trace <> 0 && !trace <> 1 then (prerr_endline "--trace takes 0 or 1"; exit 2);
  let cfg seed trace = { seed; seconds = !seconds; trace; quick = !quick; out = !out } in
  let runs =
    if !quick then List.concat_map (fun w -> [ (cfg !seed false, w); (cfg !seed true, w) ]) chosen
    else List.map (fun w -> (cfg !seed (!trace = 1), w)) chosen
  in
  let ok = List.fold_left (fun ok (c, w) -> run_workload c w && ok) true runs in
  if not ok then exit 1

let () =
  match Array.to_list Sys.argv with
  | _ :: "bench" :: args -> bench (Array.of_list args)
  | [ _; "compare"; base_file; new_file ] -> exit (Compare.main ~base_file ~new_file)
  | _ ->
      prerr_endline usage;
      exit 2
