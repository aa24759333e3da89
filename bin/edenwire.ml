(* edenwire: run a workload on the multi-process cluster.

   Runs fanin / f2 / f4 on the chosen transport (one OS process per
   shard for the socket transports), then re-runs the in-process
   deterministic oracle and verifies the item streams are
   byte-identical.  A quick way to watch DESIGN.md §13 from the
   command line:

     edenwire f2 --transport unix --shards 3 --items 64
     edenwire fanin --transport tcp
     edenwire f4 --transport inproc *)

module Cluster = Eden_par.Cluster
module Topo = Eden_par.Topo

let usage () =
  prerr_endline
    "usage: edenwire (fanin | f2 | f4) [--transport inproc|unix|tcp]\n\
    \                [--shards N] [--items N]";
  exit 2

let mode_of_string = function
  | "inproc" -> Cluster.Deterministic
  | "unix" ->
      Cluster.Wire
        { Cluster.wire_transport = Eden_wire.Transport.Unix_socket;
          wire_faults = None;
          wire_auth = None }
  | "tcp" ->
      Cluster.Wire
        { Cluster.wire_transport = Eden_wire.Transport.Tcp;
          wire_faults = None;
          wire_auth = None }
  | s ->
      Printf.eprintf "unknown transport %S (inproc | unix | tcp)\n" s;
      exit 2

let () =
  let workload = ref "" in
  let transport = ref "unix" in
  let shards = ref 3 in
  let items = ref 32 in
  let rec parse = function
    | [] -> ()
    | "--transport" :: v :: rest ->
        transport := v;
        parse rest
    | "--shards" :: v :: rest ->
        shards := int_of_string v;
        parse rest
    | "--items" :: v :: rest ->
        items := int_of_string v;
        parse rest
    | w :: rest when !workload = "" && w.[0] <> '-' ->
        workload := w;
        parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  if !workload = "" then usage ();
  let mode = mode_of_string !transport in
  let topo =
    let domains = !shards in
    match !workload with
    | "fanin" -> Topo.fanin ~domains { Topo.default with branches = 4; items = !items }
    | "f2" -> Topo.f2 ~batch:2 ~domains ~filters:3 ~items:!items ()
    | "f4" -> Topo.f4_terminal ~domains ~items:!items ()
    | _ -> usage ()
  in
  let t0 = Unix.gettimeofday () in
  let o = Topo.run mode ~domains:!shards topo in
  let dt = Unix.gettimeofday () -. t0 in
  let oracle = Topo.run Cluster.Deterministic ~domains:!shards topo in
  if !workload = "f4" then print_string (List.assoc "terminal" o.sinks);
  let consumed = Topo.consumed o in
  Printf.printf "%s over %s, %d shards: %d items, %d sink bytes, %.3fs (%d items/s)\n" !workload
    !transport !shards consumed
    (List.fold_left (fun a (_, s) -> a + String.length s) 0 o.sinks)
    dt
    (int_of_float (float_of_int consumed /. dt));
  if o.sinks = oracle.sinks && o.reports = oracle.reports then
    print_endline "stream matches the in-process oracle"
  else begin
    print_endline "STREAM DIVERGED from the in-process oracle";
    exit 1
  end
