module Sched = Eden_sched.Sched
module Prng = Eden_util.Prng
module Obs = Eden_obs.Obs

type node_id = int

type latency =
  | Fixed of float
  | Per_byte of { base : float; per_byte : float }
  | Uniform of { lo : float; hi : float }
  | Exponential of { mean : float }

type meter = {
  sent : int;
  delivered : int;
  dropped : int;
  dropped_loss : int;
  dropped_partition : int;
  bytes : int;
}

let empty_meter =
  { sent = 0; delivered = 0; dropped = 0; dropped_loss = 0; dropped_partition = 0; bytes = 0 }

type t = {
  sched : Sched.t;
  prng : Prng.t;
  mutable nodes : string array;
  mutable default_latency : latency;
  mutable local_latency : latency;
  link_latency : (int * int, latency) Hashtbl.t;
  partitions : (int * int, unit) Hashtbl.t;
  mutable loss_probability : float;
  (* The meter's counters, bumped in place: [meter] builds the record
     only when it is read, so a send copies nothing. *)
  mutable sent : int;
  mutable delivered : int;
  mutable dropped_loss : int;
  mutable dropped_partition : int;
  mutable bytes : int;
  (* Cached histogram handles; set once via [set_obs]. *)
  mutable h_delay : Obs.Histogram.t option;
  mutable h_size : Obs.Histogram.t option;
}

let mean_of = function
  | Fixed f -> f
  | Per_byte { base; per_byte } -> base +. (per_byte *. 256.0)
  | Uniform { lo; hi } -> (lo +. hi) /. 2.0
  | Exponential { mean } -> mean

let create ?(seed = 0x5EEDL) ~sched ~latency () =
  {
    sched;
    prng = Prng.create seed;
    nodes = [||];
    default_latency = latency;
    local_latency = Fixed (mean_of latency /. 10.0);
    link_latency = Hashtbl.create 8;
    partitions = Hashtbl.create 8;
    loss_probability = 0.0;
    sent = 0;
    delivered = 0;
    dropped_loss = 0;
    dropped_partition = 0;
    bytes = 0;
    h_delay = None;
    h_size = None;
  }

let sched t = t.sched

let set_obs t obs =
  t.h_delay <- Some (Obs.histogram obs "net.delay");
  t.h_size <- Some (Obs.histogram ~lo:1.0 obs "net.size")

let add_node t name =
  t.nodes <- Array.append t.nodes [| name |];
  Array.length t.nodes - 1

let node_count t = Array.length t.nodes

let node_name t id =
  if id < 0 || id >= Array.length t.nodes then invalid_arg "Net.node_name: unknown node";
  t.nodes.(id)

let set_latency t l = t.default_latency <- l
let set_local_latency t l = t.local_latency <- l

let link_key a b = if a <= b then (a, b) else (b, a)

let set_link_latency t a b l = Hashtbl.replace t.link_latency (link_key a b) l

let set_loss_probability t p =
  if p < 0.0 || p > 1.0 then invalid_arg "Net.set_loss_probability: outside [0,1]";
  t.loss_probability <- p

let partition t a b = Hashtbl.replace t.partitions (link_key a b) ()
let heal t a b = Hashtbl.remove t.partitions (link_key a b)
let heal_all t = Hashtbl.reset t.partitions

let draw_latency t model size =
  match model with
  | Fixed f -> f
  | Per_byte { base; per_byte } -> base +. (per_byte *. float_of_int size)
  | Uniform { lo; hi } -> lo +. Prng.float t.prng (hi -. lo)
  | Exponential { mean } -> Prng.exponential t.prng mean

let latency_for t ~src ~dst ~size =
  if src = dst then draw_latency t t.local_latency size
  else
    let model =
      match Hashtbl.find_opt t.link_latency (link_key src dst) with
      | Some l -> l
      | None -> t.default_latency
    in
    draw_latency t model size

let send t ~src ~dst ~size deliver =
  t.sent <- t.sent + 1;
  t.bytes <- t.bytes + size;
  let partitioned = src <> dst && Hashtbl.mem t.partitions (link_key src dst) in
  (* Same-node hops never traverse the lossy medium: like partitions,
     loss only applies when [src <> dst].  Without this exemption a
     local error reply (e.g. "no such eject") could be dropped and the
     invoker would block forever. *)
  let flip = src <> dst && t.loss_probability > 0.0 in
  let lost = flip && Prng.float t.prng 1.0 < t.loss_probability in
  (* Surface every nondeterministic draw to the schedule-exploration
     trace: the loss coin whenever it was actually flipped, and any
     partition drop. *)
  if flip then Sched.note t.sched ~kind:"net.loss" ~arg:(if lost then 1 else 0);
  if partitioned then Sched.note t.sched ~kind:"net.partition" ~arg:1;
  (* A message crossing a partitioned link is charged to the partition
     even when the loss coin also came up: the link would have eaten it
     regardless. *)
  if partitioned then t.dropped_partition <- t.dropped_partition + 1
  else if lost then t.dropped_loss <- t.dropped_loss + 1
  else begin
    let delay = latency_for t ~src ~dst ~size in
    (match t.h_delay with Some h -> Obs.Histogram.add h delay | None -> ());
    (match t.h_size with Some h -> Obs.Histogram.add h (float_of_int size) | None -> ());
    Sched.timer t.sched delay (fun () ->
        t.delivered <- t.delivered + 1;
        deliver ())
  end

let meter (t : t) =
  {
    sent = t.sent;
    delivered = t.delivered;
    dropped = t.dropped_loss + t.dropped_partition;
    dropped_loss = t.dropped_loss;
    dropped_partition = t.dropped_partition;
    bytes = t.bytes;
  }

let reset_meter (t : t) =
  t.sent <- 0;
  t.delivered <- 0;
  t.dropped_loss <- 0;
  t.dropped_partition <- 0;
  t.bytes <- 0

let meter_diff (later : meter) (earlier : meter) : meter =
  {
    sent = later.sent - earlier.sent;
    delivered = later.delivered - earlier.delivered;
    dropped = later.dropped - earlier.dropped;
    dropped_loss = later.dropped_loss - earlier.dropped_loss;
    dropped_partition = later.dropped_partition - earlier.dropped_partition;
    bytes = later.bytes - earlier.bytes;
  }

let meter_add (a : meter) (b : meter) : meter =
  {
    sent = a.sent + b.sent;
    delivered = a.delivered + b.delivered;
    dropped = a.dropped + b.dropped;
    dropped_loss = a.dropped_loss + b.dropped_loss;
    dropped_partition = a.dropped_partition + b.dropped_partition;
    bytes = a.bytes + b.bytes;
  }

let pp_meter ppf (m : meter) =
  Format.fprintf ppf "sent=%d delivered=%d dropped=%d (loss=%d partition=%d) bytes=%d" m.sent
    m.delivered m.dropped m.dropped_loss m.dropped_partition m.bytes
