(* wake-streams: many dormant producers and short streams.

   [producers] capacity-0 [source_ro] Ejects of four seeded lines each
   live in one in-process kernel.  Sixteen client fibers each take the
   next producer from a seeded permutation, [Pull.connect] to it and
   read to end of stream, then take the next: a closed loop, one
   stream per client at a time.

   A woken producer stays active after its stream ends (about 1.5 KB of
   live heap each), so every pass wakes [per_pass] producers of a
   population made fresh for it, outside the timed run.  Every pass then
   starts from the same state and memory stays bounded however many
   passes a run makes. *)

module Value = Eden_kernel.Value
module Kernel = Eden_kernel.Kernel
module Uid = Eden_kernel.Uid
module Sched = Eden_sched.Sched
module Prng = Eden_util.Prng
module T = Eden_transput

let clients = 16
let items_per = 4

type t = {
  seed : int;
  producers : int;
  per_pass : int;
  perm : int array;  (** wake order *)
  mutable k : Kernel.t;
  mutable srcs : Uid.t array;
  mutable fresh : bool;  (** no producer of the population has been woken yet *)
  mutable passes : int;
  mutable store_bytes : float;  (** live-heap bytes per dormant producer *)
  shm : Shm.t;  (** spans only: everything runs in this process *)
}

(* Generator time is accumulated here only while a traced pass runs:
   a population serves whichever kind of pass comes next. *)
let tracing = ref false
let loadgen = ref 0.

(* Item [j] of producer [p]: a pure function of the seed, so the
   clients can check each item without storing the expected text. *)
let item seed p j =
  let h = ((p * 0x9E3779B1) + (j * 0x85EBCA6B) + seed) land 0x3FFFFFFF in
  let word = Doc.words.(h mod Array.length Doc.words) in
  "p" ^ string_of_int p ^ " item " ^ string_of_int j ^ " " ^ word

let gen seed p =
  let j = ref 0 in
  fun () ->
    if !j >= items_per then None
    else begin
      let t0 = if !tracing then Clock.now_ns () else 0. in
      let v = Value.Str (item seed p !j) in
      incr j;
      if !tracing then loadgen := !loadgen +. ((Clock.now_ns () -. t0) *. 1e-9);
      Some v
    end

let live_words () =
  Gc.full_major ();
  (Gc.stat ()).Gc.live_words

(* Makes a fresh population; returns the seconds it took.  The previous
   population is dropped and collected first, so populations never
   stack.  The first creation also measures the live-heap cost per
   producer, with full collections on both sides, outside the timed
   span. *)
let create t =
  t.srcs <- [||];
  t.k <- Kernel.create ();
  let first = t.store_bytes = 0. in
  let live0 = if first then live_words () else (Gc.full_major (); 0) in
  let t0 = Clock.now_ns () in
  let k = Kernel.create ~seed:(Int64.of_int t.seed) () in
  let srcs = Array.init t.producers (fun p -> T.Stage.source_ro k ~capacity:0 (gen t.seed p)) in
  let dt = (Clock.now_ns () -. t0) *. 1e-9 in
  t.k <- k;
  t.srcs <- srcs;
  t.fresh <- true;
  if first then
    t.store_bytes <-
      float_of_int ((live_words () - live0) * (Sys.word_size / 8)) /. float_of_int t.producers;
  dt

let prepare ~seed ~producers ~per_pass =
  let g = Prng.create (Int64.of_int seed) in
  let perm = Array.init producers Fun.id in
  Prng.shuffle g perm;
  {
    seed;
    producers;
    per_pass;
    perm;
    k = Kernel.create ();
    srcs = [||];
    fresh = false;
    passes = 0;
    store_bytes = 0.;
    shm = Shm.create ~stamps:0 ~ring:16384;
  }

(* Readies a fresh population and returns the timed run of the pass,
   which reports the population's creation time as its set-up. *)
let pass t ~traced =
  let setup = if t.fresh then 0. else create t in
  t.fresh <- false;
  let n = t.per_pass in
  (* Each pass takes the next stretch of the permutation. *)
  let start = t.passes * n in
  let lat = Array.make n 0. in
  let waits = if traced then Array.make (n * (items_per + 1)) 0. else [||] in
  let nwaits = ref 0 in
  let connects = if traced then Array.make n 0. else [||] in
  let drains = if traced then Array.make n 0. else [||] in
  let errors = ref 0 and bytes = ref 0 and exchanges = ref 0 and bench = ref 0. in
  let next = ref 0 in
  let k = t.k in
  let sched = Kernel.sched k in
  let client ctx () =
    while !next < n do
      let i = !next in
      incr next;
      let p = t.perm.((start + i) mod t.producers) in
      let t0 = Clock.now_ns () in
      let pull = T.Pull.connect ctx t.srcs.(p) in
      let t1 = Clock.now_ns () in
      let ok = ref true in
      let rec drain j =
        let r0 = Clock.now_ns () in
        let r = T.Pull.read pull in
        let r1 = Clock.now_ns () in
        if traced then begin
          waits.(!nwaits) <- (r1 -. r0) *. 1e-3;
          incr nwaits
        end;
        match r with
        | None -> j
        | Some v ->
            (match v with
            | Value.Str s when j < items_per && String.equal s (item t.seed p j) ->
                bytes := !bytes + String.length s + 1
            | _ -> ok := false);
            if traced then bench := !bench +. ((Clock.now_ns () -. r1) *. 1e-9);
            drain (j + 1)
      in
      let got = drain 0 in
      let t2 = Clock.now_ns () in
      if got <> items_per || not !ok then incr errors;
      exchanges := !exchanges + T.Pull.transfers_issued pull;
      lat.(i) <- (t2 -. t0) *. 1e-3;
      if traced then begin
        connects.(i) <- (t1 -. t0) *. 1e-3;
        drains.(i) <- (t2 -. t1) *. 1e-3;
        if Shm.sampled i then begin
          let item = start + i in
          Shm.span t.shm ~shard:0 ~name:(Shm.span_id "core.connect") ~item ~t0 ~t1;
          Shm.span t.shm ~shard:0 ~name:(Shm.span_id "core.drain") ~item ~t0:t1 ~t1:t2
        end
      end
    done
  in
  fun () ->
  tracing := traced;
  loadgen := 0.;
  let p =
    Meas.timed (fun () ->
        Kernel.run_driver k (fun ctx ->
            for _ = 1 to clients do
              ignore (Sched.spawn sched ~name:"wake-client" (client ctx))
            done))
  in
  tracing := false;
  t.passes <- t.passes + 1;
  let m = Kernel.Meter.snapshot k and ops = Kernel.op_counts k in
  Meas.with_guards
    {
      p with
      setup;
      items = n;
      bytes = !bytes;
      errors = !errors;
      lat;
      invocations = m.Kernel.Meter.invocations;
      activations = m.Kernel.Meter.activations;
      op_transfer = Meas.op T.Proto.transfer_op ops;
      op_deposit = Meas.op T.Proto.deposit_op ops;
      exchanges = !exchanges;
      waits = Array.sub waits 0 !nwaits;
      connects;
      drains;
      loadgen = !loadgen +. !bench;
    }
    [ k ]

let item_value t = Value.Str (item t.seed 0 0)
