(* The C10M capacity surface at test scale: F3/F4 fan-in of N=1000
   producers into report windows, byte-identical across the
   deterministic oracle and the parallel runtime over a 5-point seed
   matrix — plus the T2 dormancy contract: a producer behind a
   lazily-pulled stream costs zero invocations until the consumer's
   first read.

   As in the chunk-equiv suite, every chunked configuration asserts it
   actually moved chunks: a silently downgraded config FAILS the
   plane-intact check instead of passing a vacuous boxed-vs-boxed
   comparison.  No wire cases here, so this suite can run after par's
   domain spawns (see main.ml). *)

module Topo = Eden_par.Topo
module Cluster = Eden_par.Cluster
module T = Eden_transput
open Eden_kernel

let check = Alcotest.check

(* --- Satellite: dormancy is free -------------------------------------- *)

(* A dormant producer behind a lazily-pulled stream does no work at all
   — no gen calls, no invocations, no activations — until the consumer
   reads; [Pull.connect] itself issues nothing.  When the consumer does
   pull, the stream arrives intact from the first line. *)
let test_dormant_producer_is_free () =
  let k = Kernel.create () in
  let doc = List.init 40 (Printf.sprintf "dormant-line-%03d") in
  let gen_calls = ref 0 in
  let rest = ref doc in
  let gen () =
    incr gen_calls;
    match !rest with
    | [] -> None
    | x :: tl ->
        rest := tl;
        Some (Value.Str x)
  in
  let src = T.Stage.source_ro k ~name:"dormant" ~capacity:0 gen in
  (* Let creation settle, then measure pure dormancy. *)
  Kernel.run_driver k (fun _ -> ());
  let before = Kernel.Meter.snapshot k in
  check Alcotest.int "no gen calls while dormant" 0 !gen_calls;
  Kernel.run_driver k (fun _ -> ());
  let idle = Kernel.Meter.diff (Kernel.Meter.snapshot k) before in
  check Alcotest.int "zero invocations while dormant" 0 idle.Kernel.Meter.invocations;
  check Alcotest.int "zero activations while dormant" 0 idle.Kernel.Meter.activations;
  let got = ref [] in
  Kernel.run_driver k (fun ctx ->
      let pull = T.Pull.connect ctx src in
      check Alcotest.int "connect issues nothing" 0 !gen_calls;
      T.Pull.iter (fun v -> got := Value.to_str v :: !got) pull);
  check (Alcotest.list Alcotest.string) "stream intact after wake" doc (List.rev !got);
  let woke = Kernel.Meter.diff (Kernel.Meter.snapshot k) before in
  check Alcotest.bool "producer woke on first pull" true
    (woke.Kernel.Meter.invocations > 0 && woke.Kernel.Meter.activations > 0)

(* --- The N=1000 fan-in seed matrix ------------------------------------ *)

let producers = 1000
let items = 5
let window = 100
let domains = 3
let det = Cluster.Deterministic
let par = Cluster.Parallel

(* Five seeds spread from EDEN_SEED (or the 0x5EED default), so a
   pinned run reproduces the exact matrix. *)
let seeds = List.init 5 (fun i -> Int64.add Seed.base (Int64.of_int (i * 7919)))

let plane_of i =
  Topo.chunked
    ~cut:(19 + ((Int64.to_int (List.nth seeds i) land 0xFFFF) + (i * 53)) mod 223)
    ()

let style_name = function `Ro -> "f4-ro" | `Wo -> "f3-wo"

let run mode ~seed ~plane ~style =
  Topo.run mode ~seed ~domains (Topo.window ~window ~style ~plane ~domains ~producers ~items ())

let check_window name (oracle : Topo.outcome) (out : Topo.outcome) =
  check Alcotest.int (name ^ ": producer count") (List.length oracle.sinks)
    (List.length out.sinks);
  List.iter2
    (fun (p, b) (_, b') ->
      if b <> b' then check Alcotest.string (Printf.sprintf "%s: %s bytes" name p) b b')
    oracle.sinks out.sinks;
  check
    (Alcotest.list (Alcotest.pair Alcotest.string (Alcotest.list Alcotest.string)))
    (name ^ ": per-label report streams") oracle.reports out.reports;
  check Alcotest.bool (name ^ ": clean EOS everywhere") true out.eos_clean

let assert_chunked name (out : Topo.outcome) =
  (* The downgrade guard: a chunked config that moved no chunks fails
     loudly rather than passing a boxed-vs-boxed comparison. *)
  check Alcotest.bool (name ^ ": chunk plane intact") true (out.chunk_items > 0);
  check Alcotest.int (name ^ ": no boxed leakage") 0 out.boxed_items

let test_seed_matrix style i () =
  let seed = List.nth seeds i in
  let name = Printf.sprintf "%s seed[%d]" (style_name style) i in
  let oracle = run det ~seed ~plane:Topo.Boxed ~style in
  check Alcotest.bool (name ^ ": oracle clean EOS") true oracle.eos_clean;
  check Alcotest.int (name ^ ": oracle is boxed") 0 oracle.chunk_items;
  let pc = run par ~seed ~plane:(plane_of i) ~style in
  check_window (name ^ " par/chunked") oracle pc;
  assert_chunked (name ^ " par/chunked") pc

let test_det_chunked style () =
  let seed = List.nth seeds 0 in
  let name = style_name style ^ " det/chunked" in
  let oracle = run det ~seed ~plane:Topo.Boxed ~style in
  let dc = run det ~seed ~plane:(plane_of 0) ~style in
  check_window name oracle dc;
  assert_chunked name dc

let suite =
  Alcotest.test_case "dormant producer costs nothing until pulled" `Quick
    test_dormant_producer_is_free
  :: List.concat_map
       (fun style ->
         Alcotest.test_case
           (style_name style ^ ": det chunked == det boxed (N=1000)")
           `Quick (test_det_chunked style)
         :: List.map
              (fun i ->
                Alcotest.test_case
                  (Printf.sprintf "%s: par == det oracle, seed[%d] (N=1000)"
                     (style_name style) i)
                  `Quick
                  (test_seed_matrix style i))
              [ 0; 1; 2; 3; 4 ])
       [ `Ro; `Wo ]
