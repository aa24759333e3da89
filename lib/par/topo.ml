module Kernel = Eden_kernel.Kernel
module Value = Eden_kernel.Value
module Obs = Eden_obs.Obs
module T = Eden_transput
module Cat = Eden_filters.Catalog
module Report = Eden_filters.Report
module Chunkline = Eden_filters.Chunkline
module Dev = Eden_devices.Devices
module Bin = Eden_wire.Bin
module Chunk = Eden_chunk.Chunk
module Flowctl = Eden_flowctl.Flowctl

(* --- The value ------------------------------------------------------ *)

type plane = Boxed | Chunked of { cut : int; chunk_bytes : int }

type doc =
  | Lines of int
  | Lines_then_drop of int
  | Branch_lines of { branch : int; items : int }
  | Ints of { branch : int; items : int }

type filter = Trim | Upcase | Grep_v of string | Identity | Burn of int

type role =
  | Source of doc
  | Reporting_source of doc
  | Filter of filter
  | Progress of int
  | Pipe
  | Sink
  | Window

type channel = Output | Report
type discipline = T.Pipeline.discipline = Read_only | Write_only | Conventional
type stage = { name : string; role : role; shard : int; capacity : int; batch : int }
type edge = { src : int; dst : int; discipline : discipline; channel : channel }

type t = {
  stages : stage array;
  edges : edge list;
  plane : plane;
  flowctl : Flowctl.t option;
}

type error =
  | Bad_size of { what : string; value : int }
  | Bad_shard of { stage : string; shard : int; domains : int }
  | No_passive_output of { edge : string }
  | No_intake of { edge : string }
  | Needs_pipe of { edge : string }
  | Fan_out of { edge : string }
  | Unjoinable of { stage : string; why : string }

exception Invalid of error

let error_to_string = function
  | Bad_size { what; value } -> Printf.sprintf "%s must be positive (got %d)" what value
  | Bad_shard { stage; shard; domains } ->
      Printf.sprintf "stage %s: shard %d outside [0, %d)" stage shard domains
  | No_passive_output { edge } ->
      Printf.sprintf "edge %s: pulls from a stage with no passive output" edge
  | No_intake { edge } -> Printf.sprintf "edge %s: pushes into a stage with no intake" edge
  | Needs_pipe { edge } ->
      Printf.sprintf "edge %s: active output feeds active input with no pipe between" edge
  | Fan_out { edge } -> Printf.sprintf "edge %s: a second consumer of the same stream" edge
  | Unjoinable { stage; why } -> Printf.sprintf "stage %s: %s" stage why

let () =
  Printexc.register_printer (function
    | Invalid e -> Some ("Topo.Invalid: " ^ error_to_string e)
    | _ -> None)

let fail e = raise (Invalid e)
let size what value = if value <= 0 then fail (Bad_size { what; value })

(* --- Checking ------------------------------------------------------- *)

(* Each edge resolves to who drives it: [push] when the producer
   deposits (write-only, or conventional into a pipe), otherwise the
   consumer transfers.  A stage's constructor follows from the resolved
   ends of its edges. *)
type plan = {
  order : int array;  (** build order *)
  ins : (edge * bool) list array;  (** in-edges with [push], declaration order *)
  out : (edge * bool) option array;
  report : (edge * bool) option array;
}

let is_pipe s = s.role = Pipe

let serves role ch =
  match (role, ch) with
  | (Source _ | Reporting_source _ | Filter _ | Progress _ | Pipe), Output -> true
  | (Reporting_source _ | Progress _), Report -> true
  | _ -> false

let pushes role ch =
  match (role, ch) with
  | (Source _ | Filter _ | Progress _), Output | Progress _, Report -> true
  | _ -> false

let pulls = function Filter _ | Progress _ | Sink | Window -> true | _ -> false
let has_intake = function Filter _ | Progress _ | Sink | Window | Pipe -> true | _ -> false
let items_of = function
  | Lines n | Lines_then_drop n -> n
  | Branch_lines { items; _ } | Ints { items; _ } -> items

let check mode ~domains t =
  size "domains" domains;
  let n = Array.length t.stages in
  size "stages" n;
  let wire = match mode with Cluster.Wire _ -> true | _ -> false in
  Array.iter
    (fun s ->
      if s.shard < 0 || s.shard >= domains then
        fail (Bad_shard { stage = s.name; shard = s.shard; domains });
      size (s.name ^ " batch") s.batch;
      if s.capacity < 0 then fail (Bad_size { what = s.name ^ " capacity"; value = s.capacity });
      match s.role with
      | Source d | Reporting_source d -> size (s.name ^ " items") (items_of d)
      | Progress every -> size (s.name ^ " progress interval") every
      | (Sink | Window) when wire && s.shard <> 0 ->
          let why = "collects output: under Wire it lives on shard 0" in
          fail (Unjoinable { stage = s.name; why })
      | _ -> ())
    t.stages;
  let ins = Array.make n [] and out = Array.make n None and report = Array.make n None in
  List.iter
    (fun e ->
      if e.src < 0 || e.src >= n || e.dst < 0 || e.dst >= n then
        fail
          (Unjoinable { stage = Printf.sprintf "#%d -> #%d" e.src e.dst; why = "names no stage" });
      let s = t.stages.(e.src) and d = t.stages.(e.dst) in
      let name () =
        Printf.sprintf "%s%s -> %s" s.name (if e.channel = Report then ".report" else "") d.name
      in
      let push =
        match e.discipline with
        | Read_only -> false
        | Write_only -> true
        | Conventional ->
            if not (is_pipe s || is_pipe d) then fail (Needs_pipe { edge = name () });
            is_pipe d
      in
      if push then begin
        if not (has_intake d.role) then fail (No_intake { edge = name () });
        if not (pushes s.role e.channel) then
          fail (Unjoinable { stage = s.name; why = "cannot push the stream of " ^ name () })
      end
      else begin
        if not (serves s.role e.channel) then fail (No_passive_output { edge = name () });
        if not (pulls d.role) then
          fail (Unjoinable { stage = d.name; why = "cannot pull the stream of " ^ name () })
      end;
      let slot = if e.channel = Output then out else report in
      if slot.(e.src) <> None then fail (Fan_out { edge = name () });
      slot.(e.src) <- Some (e, push);
      ins.(e.dst) <- (e, push) :: ins.(e.dst))
    t.edges;
  Array.iteri
    (fun i s ->
      ins.(i) <- List.rev ins.(i);
      let bad why = fail (Unjoinable { stage = s.name; why }) in
      let pulled = List.filter (fun (_, push) -> not push) ins.(i) in
      let in_push = pulled = [] in
      if ins.(i) = [] && has_intake s.role then bad "has no input";
      if pulled <> [] && List.length pulled < List.length ins.(i) then
        bad "mixes pulled and deposited inputs";
      if List.length pulled > 1 && s.role <> Window then bad "pulls from more than one stream";
      let out_push = Option.map snd out.(i) in
      (match s.role with Window | Sink -> () | _ -> if out_push = None then bad "has no consumer");
      match (s.role, out_push) with
      | Filter _, Some false when in_push -> bad "is passive at both ends: nothing drives it"
      | Filter _, Some true when not in_push ->
          if List.exists (fun (e, _) -> e.channel = Report) pulled then
            bad "a conventional filter pulls only an output channel"
      | Progress _, Some o ->
          let report_ok = match report.(i) with None -> not o | Some (_, r) -> r = o in
          if o <> in_push || not report_ok then
            bad "a reporting filter runs its input and both streams in one discipline"
      | _ -> ())
    t.stages;
  (* Build order: a stage is created after every stage it pulls from
     (read-only: upstream first) and every stage it deposits into
     (write-only: downstream first); ties go by declaration order. *)
  let state = Array.make n 0 and order = Array.make n 0 and next = ref 0 in
  let rec visit i =
    match state.(i) with
    | 2 -> ()
    | 1 -> fail (Unjoinable { stage = t.stages.(i).name; why = "sits on a dependency cycle" })
    | _ ->
        state.(i) <- 1;
        List.iter (fun (e, push) -> if not push then visit e.src) ins.(i);
        Option.iter (fun (e, push) -> if push then visit e.dst) out.(i);
        Option.iter (fun (e, push) -> if push then visit e.dst) report.(i);
        state.(i) <- 2;
        order.(!next) <- i;
        incr next
  in
  for i = 0 to n - 1 do
    visit i
  done;
  { order; ins; out; report }

(* --- Data ----------------------------------------------------------- *)

(* Same strings "Line-%03d  the Quick brown Fox   " would produce, but
   Printf-free: at benchmark item counts the sprintf per line is itself
   a measurable share of a run. *)
let lines n =
  List.init n (fun i ->
      let s = string_of_int i in
      let s = if String.length s < 3 then String.make (3 - String.length s) '0' ^ s else s in
      "Line-" ^ s ^ "  the Quick brown Fox   ")

let branch_lines ~branch n =
  List.init n (fun i ->
      Printf.sprintf "b%02d-line-%03d  payload %04x  " branch i
        (((branch * 7919) + (i * 104729)) land 0xFFFF))

let burn rounds seed =
  let h = ref seed in
  for _ = 1 to rounds do
    h := ((!h * 1103515245) + 12345) land 0x3FFFFFFF
  done;
  !h

let list_gen vs =
  let rest = ref vs in
  fun () ->
    match !rest with
    | [] -> None
    | v :: tl ->
        rest := tl;
        Some v

let gen plane = function
  | Ints { branch; items } ->
      let next = ref 0 in
      fun () ->
        if !next >= items then None
        else begin
          incr next;
          Some (Value.Int ((branch * 1_000_003) + !next - 1))
        end
  | d -> (
      let text =
        match d with
        | Lines n -> lines n
        | Lines_then_drop n -> lines n @ [ "drop this line" ]
        | Branch_lines { branch; items } -> branch_lines ~branch items
        | Ints _ -> assert false
      in
      match plane with
      | Boxed -> list_gen (List.map (fun s -> Value.Str s) text)
      | Chunked { cut; _ } ->
          (* Per-branch cuts differ so chunk boundaries land differently
             on every branch of one run. *)
          let cut =
            match d with
            | Branch_lines { branch; _ } -> 1 + ((cut + (branch * 13)) mod 257)
            | _ -> cut
          in
          Chunkline.cut_gen ~cut (String.concat "" (List.map (fun l -> l ^ "\n") text)))

let transform plane f =
  match (f, plane) with
  | Trim, Boxed -> Cat.trim_trailing
  | Trim, Chunked _ -> Cat.chunked_trim_trailing
  | Upcase, Boxed -> Cat.upcase
  | Upcase, Chunked _ -> Cat.chunked_upcase
  | Grep_v p, Boxed -> Cat.grep_v p
  | Grep_v p, Chunked _ -> Cat.chunked_grep_v p
  | Identity, _ -> T.Transform.identity
  | Burn rounds, _ -> T.Transform.map (fun v -> Value.Int (burn rounds (Value.to_int v)))

(* Progress reporting held to the same text on both planes: the boxed
   side counts items (one line each), the chunked side counts lines as
   the engine completes them. *)
let progress plane ~every ~label : Report.reporting =
  match plane with
  | Boxed -> Report.with_progress ~every ~label T.Transform.identity
  | Chunked _ ->
      fun next emit report ->
        let seen = ref 0 in
        Chunkline.run
          ~on_line:(fun _ line ->
            incr seen;
            if !seen mod every = 0 then
              report (Value.Str (Printf.sprintf "%s: %d items" label !seen));
            ([ line ], false))
          ~on_flush:(fun () -> [])
          next emit;
        report (Value.Str (Printf.sprintf "%s: done, %d items" label !seen))

(* --- The runner ----------------------------------------------------- *)

type outcome = {
  sinks : (string * string) list;
  chunk_items : int;
  boxed_items : int;
  eos : int;
  reports : (string * string list) list;
  eos_clean : bool;
  meter : Kernel.Meter.snapshot;
  op_counts : (string * int) list;
  flows : (string * int * int) list;
  histograms : (string * Obs.Histogram.t) list;
  cross_messages : int;
  makespans : float array;
}

let consumed o = o.chunk_items + o.boxed_items

(* One per sink: a sink lives on one shard, so its collector is only
   ever touched from that shard's domain. *)
type collector = {
  buf : Buffer.t;
  mutable chunks : int;
  mutable boxed : int;
  mutable eos_n : int;
}

let collect col = function
  | Value.Chunk c ->
      col.chunks <- col.chunks + 1;
      Buffer.add_string col.buf (Chunk.to_string c);
      Chunk.release c
  | Value.Str s ->
      col.boxed <- col.boxed + 1;
      Buffer.add_string col.buf s;
      Buffer.add_char col.buf '\n'
  | v ->
      col.boxed <- col.boxed + 1;
      Buffer.add_string col.buf (Bin.encode v)

let find_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then None
    else if String.sub s i m = sub then Some i
    else go (i + 1)
  in
  go 0

(* A window's lines grouped per writer label, each group in arrival
   order: a pulling window renders "label | line" itself; a deposit
   window cannot know who wrote (§5), so its lines are attributed by the
   "label: " prefix every reporting stage writes. *)
let split_window ~pulled labels lines =
  let sep = if pulled then " | " else ": " in
  let groups = Hashtbl.create 16 in
  List.iter (fun l -> Hashtbl.replace groups l []) labels;
  List.iter
    (fun line ->
      match find_sub line sep with
      | None -> ()
      | Some i -> (
          let label = String.sub line 0 i in
          match Hashtbl.find_opt groups label with
          | None -> ()
          | Some acc ->
              let cut = i + String.length sep in
              let kept = if pulled then String.sub line cut (String.length line - cut) else line in
              Hashtbl.replace groups label (kept :: acc)))
    lines;
  List.map (fun l -> (l, List.rev (Hashtbl.find groups l))) labels

let channel_of = function Output -> T.Channel.output | Report -> T.Channel.report

let run mode ?seed ~domains t =
  let p = check mode ~domains t in
  let c = Cluster.create ?seed mode ~shards:domains () in
  let n = Array.length t.stages in
  let uids = Array.make n None in
  let collectors = Array.make n None and windows = Array.make n None in
  let uid i = Option.get uids.(i) in
  let flowctl = t.flowctl in
  let build i =
    let s = t.stages.(i) in
    let k = Cluster.kernel c s.shard in
    let name = s.name and capacity = s.capacity and batch = s.batch in
    let proxy op j =
      Cluster.proxy c ~shard:s.shard ~ops:[ op ] ~target:(t.stages.(j).shard, uid j)
    in
    let pull_from (e, _) = proxy T.Proto.transfer_op e.src in
    let push_to (e, _) = proxy T.Proto.deposit_op e.dst in
    let into (e, _) =
      if t.stages.(e.dst).role = Window then T.Channel.report else T.Channel.output
    in
    let flow () = Some (Obs.register_stage (Kernel.obs k) name) in
    let pulled = match p.ins.(i) with (_, false) :: _ -> true | _ -> false in
    let up () = List.hd p.ins.(i) and out () = Option.get p.out.(i) in
    let upstream_channel () = channel_of (fst (up ())).channel in
    let collector () =
      let col = { buf = Buffer.create 1024; chunks = 0; boxed = 0; eos_n = 0 } in
      collectors.(i) <- Some col;
      (collect col, fun () -> col.eos_n <- col.eos_n + 1)
    in
    let window d =
      windows.(i) <- Some (d, pulled);
      d.Dev.uid
    in
    match s.role with
    | Source d when Option.fold ~none:false ~some:snd p.out.(i) ->
        T.Stage.source_wo k ~name ~batch ?flowctl ?flow:(flow ()) ~downstream:(push_to (out ()))
          ~downstream_channel:(into (out ())) (gen t.plane d)
    | Source d -> T.Stage.source_ro k ~name ~capacity ?flow:(flow ()) (gen t.plane d)
    | Reporting_source d -> Report.source_ro k ~name ~capacity ~label:name (gen t.plane d)
    | Filter f when pulled && snd (out ()) ->
        let upstream = pull_from (up ()) in
        let downstream = push_to (out ()) in
        T.Stage.filter_active k ~name ~batch ?flowctl ?flow:(flow ()) ~upstream ~downstream
          (transform t.plane f)
    | Filter f when pulled ->
        T.Stage.filter_ro k ~name ~capacity ~batch ?flowctl ?flow:(flow ())
          ~upstream:(pull_from (up ()))
          ~upstream_channel:(upstream_channel ()) (transform t.plane f)
    | Filter f ->
        T.Stage.filter_wo k ~name ~capacity ~batch ?flowctl ?flow:(flow ())
          ~downstream:(push_to (out ()))
          ~downstream_channel:(into (out ())) (transform t.plane f)
    | Progress every when pulled ->
        Report.filter_ro k ~name ~capacity ~batch ~upstream:(pull_from (up ()))
          ~upstream_channel:(upstream_channel ()) (progress t.plane ~every ~label:name)
    | Progress every ->
        let r = Option.get p.report.(i) in
        let downstream = push_to (out ()) in
        let report_to = push_to r in
        Report.filter_wo k ~name ~capacity ~batch ~downstream ~downstream_channel:(into (out ()))
          ~report_to ~report_channel:(into r) (progress t.plane ~every ~label:name)
    | Pipe -> T.Stage.pipe k ~name ~capacity ?flow:(flow ()) ()
    | Sink when pulled ->
        let consume, on_done = collector () in
        T.Stage.sink_ro k ~name ~batch ?flowctl ?flow:(flow ()) ~upstream:(pull_from (up ()))
          ~upstream_channel:(upstream_channel ()) ~on_done consume
    | Sink ->
        let consume, on_done = collector () in
        T.Stage.sink_wo k ~name ~capacity ?flow:(flow ()) ~on_done consume
    | Window when pulled ->
        let watch =
          List.map
            (fun ((e, _) as up) -> (t.stages.(e.src).name, pull_from up, channel_of e.channel))
            p.ins.(i)
        in
        window (Dev.report_window_ro k ~name ~batch ~watch ())
    | Window -> window (Dev.report_window_wo k ~name ~writers:(List.length p.ins.(i)) ())
  in
  Array.iter (fun i -> uids.(i) <- Some (build i)) p.order;
  (* Pumps — stages with no passive end — start in declaration order. *)
  Array.iteri
    (fun i s ->
      let active_in = List.for_all (fun (_, push) -> not push) p.ins.(i) in
      if active_in && Option.fold ~none:true ~some:snd p.out.(i) then
        Kernel.poke (Cluster.kernel c s.shard) (uid i))
    t.stages;
  Cluster.run c;
  let sinks = ref [] and reports = ref [] and chunk_items = ref 0 and boxed_items = ref 0 in
  let eos = ref 0 and clean = ref true in
  Array.iteri
    (fun i s ->
      Option.iter
        (fun col ->
          sinks := (s.name, Buffer.contents col.buf) :: !sinks;
          chunk_items := !chunk_items + col.chunks;
          boxed_items := !boxed_items + col.boxed;
          eos := !eos + col.eos_n;
          if col.eos_n <> 1 then clean := false)
        collectors.(i);
      Option.iter
        (fun (d, pulled) ->
          if not (Eden_sched.Ivar.is_filled d.Dev.done_) then clean := false;
          let labels = List.map (fun (e, _) -> t.stages.(e.src).name) p.ins.(i) in
          reports := split_window ~pulled labels (d.Dev.lines ()) @ !reports)
        windows.(i))
    t.stages;
  {
    sinks = List.rev !sinks;
    chunk_items = !chunk_items;
    boxed_items = !boxed_items;
    eos = !eos;
    reports = List.sort (fun (a, _) (b, _) -> String.compare a b) !reports;
    eos_clean = !clean;
    meter = Cluster.meter c;
    op_counts = Cluster.op_counts c;
    flows = Cluster.flows c;
    histograms = Cluster.histograms c;
    cross_messages = Cluster.cross_messages c;
    makespans = Cluster.makespans c;
  }

(* --- The shapes ----------------------------------------------------- *)

let chunked ?(cut = 113) ?(chunk_bytes = 4096) () =
  if cut < 1 then invalid_arg "Topo.chunked: cut must be at least 1";
  Chunked { cut; chunk_bytes }

let plane_flowctl = function
  | Boxed -> None
  | Chunked { chunk_bytes; _ } -> Some (Flowctl.chunked ~chunk_bytes ())

(* Stage s of a chain lands on this shard; shard 0 is reserved for sinks
   and windows so every chain tail crosses the fabric. *)
let place ~domains s = if domains <= 1 then 0 else 1 + (s mod (domains - 1))

(* Declaration-order accumulator behind every constructor. *)
type builder = {
  mutable rev_stages : stage list;
  mutable count : int;
  mutable rev_edges : edge list;
}

let builder () = { rev_stages = []; count = 0; rev_edges = [] }

let add b ?(capacity = 0) ?(batch = 1) ~shard name role =
  b.rev_stages <- { name; role; shard; capacity; batch } :: b.rev_stages;
  b.count <- b.count + 1;
  b.count - 1

let link b ?(channel = Output) discipline src dst =
  b.rev_edges <- { src; dst; discipline; channel } :: b.rev_edges

let finish ?flowctl b plane =
  {
    stages = Array.of_list (List.rev b.rev_stages);
    edges = List.rev b.rev_edges;
    plane;
    flowctl = (match flowctl with Some f -> f | None -> plane_flowctl plane);
  }

let alternating j = if j mod 2 = 1 then Trim else Upcase

let f2 ?(plane = Boxed) ?(filter = alternating) ?(batch = 1) ?(capacity = 3) ~domains ~filters
    ~items () =
  if filters < 0 then fail (Bad_size { what = "filters"; value = filters });
  let b = builder () in
  let prev =
    ref (add b ~capacity ~batch ~shard:(place ~domains 0) "source" (Source (Lines items)))
  in
  for j = 1 to filters do
    let f =
      add b ~capacity ~batch ~shard:(place ~domains j) (Printf.sprintf "F%d" j) (Filter (filter j))
    in
    link b Read_only !prev f;
    prev := f
  done;
  link b Read_only !prev (add b ~batch ~shard:0 "sink" Sink);
  finish b plane

let f1 ?(plane = Boxed) ?(capacity = 4) ~domains ~filters ~items () =
  if filters < 0 then fail (Bad_size { what = "filters"; value = filters });
  let b = builder () in
  let pipe j = add b ~capacity ~shard:0 (Printf.sprintf "pipe%d" j) Pipe in
  let src = add b ~shard:(place ~domains 0) "source" (Source (Lines items)) in
  let prev = ref (pipe 0) in
  link b Conventional src !prev;
  for j = 1 to filters do
    let f = add b ~shard:(place ~domains j) (Printf.sprintf "F%d" j) (Filter (alternating j)) in
    link b Conventional !prev f;
    prev := pipe j;
    link b Conventional f !prev
  done;
  link b Conventional !prev (add b ~shard:0 "sink" Sink);
  finish b plane

(* Source, reporting F1, F2 (grep -v "drop"), F3 (upcase) on the chain
   shards; the [tail] stages on shard 0. *)
let report_chain b ~domains ~capacity ~source ~items =
  let at s = place ~domains s in
  let src = add b ~capacity ~shard:(at 0) "source" (source (Lines_then_drop items)) in
  let f1 = add b ~capacity ~shard:(at 1) "F1" (Progress 4) in
  let f2 = add b ~capacity ~shard:(at 2) "F2" (Filter (Grep_v "drop")) in
  let f3 = add b ~capacity ~shard:(at 3) "F3" (Filter Upcase) in
  (src, f1, f2, f3)

let f3 ?(plane = Boxed) ?(capacity = 4) ~domains ~items () =
  let b = builder () in
  let src, f1, f2, f3 = report_chain b ~domains ~capacity ~source:(fun d -> Source d) ~items in
  let sink = add b ~capacity ~shard:0 "sink" Sink in
  let repsink = add b ~capacity ~shard:0 "repsink" Sink in
  List.iter (fun (s, d) -> link b Write_only s d) [ (src, f1); (f1, f2); (f2, f3); (f3, sink) ];
  link b ~channel:Report Write_only f1 repsink;
  finish b plane

let f4 ?(plane = Boxed) ?(capacity = 3) ~domains ~items () =
  let b = builder () in
  let src, f1, f2, f3 = report_chain b ~domains ~capacity ~source:(fun d -> Source d) ~items in
  let sink = add b ~shard:0 "sink" Sink in
  let window = add b ~shard:0 "window" Window in
  List.iter (fun (s, d) -> link b Read_only s d) [ (src, f1); (f1, f2); (f2, f3); (f3, sink) ];
  link b ~channel:Report Read_only f1 window;
  finish b plane

let f4_terminal ~domains ~items () =
  let b = builder () in
  let src, f1, f2, f3 =
    report_chain b ~domains ~capacity:0 ~source:(fun d -> Reporting_source d) ~items
  in
  let term = add b ~shard:0 "terminal" Sink in
  let window = add b ~shard:0 "window" Window in
  List.iter (fun (s, d) -> link b Read_only s d) [ (src, f1); (f1, f2); (f2, f3); (f3, term) ];
  link b ~channel:Report Read_only src window;
  link b ~channel:Report Read_only f1 window;
  finish b Boxed

type spec = {
  branches : int;
  filters : int;
  items : int;
  batch : int;
  capacity : int;
  work : int;
  flowctl : Flowctl.t option;
}

let default =
  { branches = 8; filters = 2; items = 64; batch = 4; capacity = 4; work = 20_000; flowctl = None }

let fanin ~domains spec =
  size "branches" spec.branches;
  let b = builder () in
  let { capacity; batch; _ } = spec in
  for br = 0 to spec.branches - 1 do
    let shard = place ~domains br in
    let prev =
      ref
        (add b ~capacity ~shard (Printf.sprintf "b%02d.source" br)
           (Source (Ints { branch = br; items = spec.items })))
    in
    for j = 0 to spec.filters - 1 do
      let f =
        add b ~capacity ~batch ~shard
          (Printf.sprintf "b%02d.filter%d" br j)
          (Filter (Burn spec.work))
      in
      link b Read_only !prev f;
      prev := f
    done;
    link b Read_only !prev (add b ~batch ~shard:0 (Printf.sprintf "b%02d.sink" br) Sink)
  done;
  finish ~flowctl:spec.flowctl b Boxed

let fanin_bytes ~domains ~branches ~items ~plane () =
  size "branches" branches;
  let b = builder () in
  for br = 0 to branches - 1 do
    let shard = place ~domains br in
    let src =
      add b ~capacity:4 ~shard (Printf.sprintf "b%02d.source" br)
        (Source (Branch_lines { branch = br; items }))
    in
    let up = add b ~capacity:4 ~shard (Printf.sprintf "b%02d.upcase" br) (Filter Upcase) in
    link b Read_only src up;
    link b Read_only up (add b ~shard:0 (Printf.sprintf "b%02d.sink" br) Sink)
  done;
  finish b plane

let window ?window ~style ~plane ~domains ~producers ~items () =
  size "producers" producers;
  let group = match window with None -> producers | Some w -> size "window" w; w in
  let b = builder () in
  let n_windows = (producers + group - 1) / group in
  let label p = Printf.sprintf "p%05d" p in
  (* Write-only windows are passive fan-in sinks, declared up front;
     read-only ones pull, and follow the group they watch. *)
  let wo_windows =
    match style with
    | `Ro -> [||]
    | `Wo -> Array.init n_windows (fun w -> add b ~shard:0 (Printf.sprintf "window-%d" w) Window)
  in
  let group_reps = ref [] in
  for p = 0 to producers - 1 do
    let shard = place ~domains p in
    let src =
      add b ~shard (label p ^ ".src") (Source (Branch_lines { branch = p; items }))
    in
    match style with
    | `Ro ->
        let rep = add b ~shard (label p) (Progress 4) in
        link b Read_only src rep;
        link b Read_only rep (add b ~shard:0 (label p ^ ".sink") Sink);
        group_reps := rep :: !group_reps;
        if (p + 1) mod group = 0 || p = producers - 1 then begin
          let w = add b ~shard:0 (Printf.sprintf "window-%d" (p / group)) Window in
          List.iter (fun r -> link b ~channel:Report Read_only r w) (List.rev !group_reps);
          group_reps := []
        end
    | `Wo ->
        let rep = add b ~capacity:1 ~shard (label p) (Progress 4) in
        link b Write_only src rep;
        link b Write_only rep (add b ~capacity:4 ~shard:0 (label p ^ ".sink") Sink);
        link b ~channel:Report Write_only rep wo_windows.(p / group)
  done;
  finish b plane
