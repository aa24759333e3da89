(* One MAP_SHARED float array, made before the wire leaves fork, through
   which leaf code reports to the hub: item creation stamps, per-shard
   counters (generator and filter self time, credit notes) and a fixed
   span ring per shard.  The hub reads it after [Cluster.run] has
   reaped the leaves.  Each cell has a single writer process. *)

open Bigarray

type t = {
  a : (float, float64_elt, c_layout) Array1.t;
  stamps : int;  (** capacity of the stamp area *)
  ring : int;  (** spans per shard ring *)
}

let shards = 3
let slots = 8

(* Counter slots per shard. *)
let loadgen = 0
let filter j = j (* filters 1..3 *)
let credit_takes = 4

let span_width = 4 (* name, item, start, end *)
let counters_at = 1 (* cell 0: span id base of the current pass *)
let stamps_at = counters_at + (shards * slots)
let ring_at t s = stamps_at + t.stamps + (s * (2 + (t.ring * span_width)))

let create ~stamps ~ring =
  let path = Filename.temp_file "perfbench-" ".shm" in
  let fd = Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_TRUNC ] 0o600 in
  let n = stamps_at + stamps + (shards * (2 + (ring * span_width))) in
  let a =
    Fun.protect
      ~finally:(fun () ->
        Unix.close fd;
        Sys.remove path)
      (fun () -> array1_of_genarray (Unix.map_file fd float64 c_layout true [| n |]))
  in
  Array1.fill a 0.;
  { a; stamps; ring }

let cell s slot = counters_at + (s * slots) + slot
let add t ~shard ~slot v = t.a.{cell shard slot} <- t.a.{cell shard slot} +. v
let get t ~shard ~slot = t.a.{cell shard slot}

let sum t ~slot =
  let acc = ref 0. in
  for s = 0 to shards - 1 do
    acc := !acc +. get t ~shard:s ~slot
  done;
  !acc

let reset_counters t = Array1.fill (Array1.sub t.a counters_at (shards * slots)) 0.
let stamp t i v = t.a.{stamps_at + i} <- v
let stamped t i = t.a.{stamps_at + i}

(* --- Spans ------------------------------------------------------------ *)

let span_names =
  [|
    "par.build"; "par.run"; "loadgen.gen"; "filters.trim_trailing"; "filters.upcase";
    "filters.rot13"; "core.pull_read"; "core.push_write"; "core.connect"; "core.drain";
    "wire.bin_encode"; "wire.bin_decode"; "wire.auth_seal"; "wire.auth_open"; "wire.frame_rtt";
  |]

let span_id name =
  let rec find i =
    if i = Array.length span_names then invalid_arg ("Shm.span_id: " ^ name)
    else if span_names.(i) = name then i
    else find (i + 1)
  in
  find 0

(* Per-item spans are kept for one item in 64. *)
let sampled item = item land 63 = 0

(* Item ids are offset by a per-pass base so spans of different passes
   never share an id. *)
let set_id_base t b = t.a.{0} <- float_of_int b
let id_base t = int_of_float t.a.{0}

let span t ~shard ~name ~item ~t0 ~t1 =
  let r = ring_at t shard in
  let n = int_of_float t.a.{r} in
  if n < t.ring then begin
    let e = r + 2 + (n * span_width) in
    t.a.{e} <- float_of_int name;
    t.a.{e + 1} <- float_of_int item;
    t.a.{e + 2} <- t0;
    t.a.{e + 3} <- t1;
    t.a.{r} <- float_of_int (n + 1)
  end
  else t.a.{r + 1} <- t.a.{r + 1} +. 1.

let reset_spans t =
  for s = 0 to shards - 1 do
    let r = ring_at t s in
    t.a.{r} <- 0.;
    t.a.{r + 1} <- 0.
  done

let dropped t =
  let d = ref 0 in
  for s = 0 to shards - 1 do
    d := !d + int_of_float t.a.{ring_at t s + 1}
  done;
  !d

(* Every recorded span as Chrome trace "complete" events, one process
   per shard, timestamps in microseconds from the earliest span. *)
let write_chrome t path =
  let events = ref [] in
  let origin = ref infinity in
  for s = 0 to shards - 1 do
    let r = ring_at t s in
    for i = 0 to int_of_float t.a.{r} - 1 do
      let e = r + 2 + (i * span_width) in
      origin := Float.min !origin t.a.{e + 2};
      let name = int_of_float t.a.{e} and item = int_of_float t.a.{e + 1} in
      events := (s, name, item, t.a.{e + 2}, t.a.{e + 3}) :: !events
    done
  done;
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n";
      for s = 0 to shards - 1 do
        Printf.fprintf oc
          "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": %d, \"args\": {\"name\": \"%s\"}},\n"
          s
          (if s = 0 then "hub (shard 0)" else Printf.sprintf "leaf (shard %d)" s)
      done;
      let evs = List.sort compare (List.rev !events) in
      List.iteri
        (fun i (s, name, item, t0, t1) ->
          Printf.fprintf oc
            "%s{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", \"pid\": %d, \"tid\": 0, \"ts\": \
             %.3f, \"dur\": %.3f, \"args\": {\"item\": %d}}"
            (if i = 0 then "" else ",\n")
            span_names.(name)
            (List.hd (String.split_on_char '.' span_names.(name)))
            s
            ((t0 -. !origin) /. 1e3)
            ((t1 -. t0) /. 1e3)
            item)
        evs;
      Printf.fprintf oc "\n], \"otherData\": {\"dropped_spans\": %d}}\n" (dropped t))
