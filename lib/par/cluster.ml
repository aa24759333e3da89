module Kernel = Eden_kernel.Kernel
module Uid = Eden_kernel.Uid
module Value = Eden_kernel.Value
module Sched = Eden_sched.Sched
module Ivar = Eden_sched.Ivar
module Prng = Eden_util.Prng
module Obs = Eden_obs.Obs
module Frame = Eden_wire.Frame
module Bin = Eden_wire.Bin
module Transport = Eden_wire.Transport
module Faults = Eden_wire.Faults
module Auth = Eden_wire.Auth
module Conn = Eden_wire.Conn
module Chunk = Eden_chunk.Chunk

type wire_config = {
  wire_transport : Transport.kind;
  wire_faults : Faults.t option;
  (* When set, the fork-time handshake runs the RFC-0002 three-layer
     exchange (community id, keyed MAC, per-connection session token)
     and every post-handshake frame on every socket is sealed with an
     8-byte MAC trailer.  [None] is the plain version-1 handshake —
     the benchmark baseline (A1 measures the difference). *)
  wire_auth : Auth.community option;
}

type mode = Deterministic | Parallel | Wire of wire_config

type msg =
  | Request of {
      req_id : int;
      from_shard : int;
      target : Uid.t;
      op : string;
      arg : Value.t;
    }
  | Reply of { req_id : int; reply : Kernel.reply }

type shard = {
  index : int;
  kernel : Kernel.t;
  inbox : msg Dqueue.t;
  (* Both tables below are touched only by the shard's own domain:
     [forward] runs in a fiber of this shard, [inject] in its pump
     loop. *)
  pending : (int, Kernel.reply Ivar.t) Hashtbl.t;
  mutable next_req : int;
  mutable ctx : Kernel.ctx option;
}

(* Stats a leaf process reports back over its socket at shutdown —
   everything the in-process accessors would have read from the shard's
   kernel directly, plus the data frames it sent its leaf-to-leaf links
   (the hub never sees them) and its first fiber failure.  Histograms
   are deliberately absent: wall-clock timing makes them
   transport-dependent, so wire-mode histograms cover the hub shard
   only. *)
type remote_stats = {
  r_meter : Kernel.Meter.snapshot;
  r_ops : (string * int) list;
  r_flows : (string * int * int) list;
  r_makespan : float;
  r_link_frames : int;
  r_failure : string option;
}

(* This process's end of one socket in wire mode: the hub's to a leaf, a
   leaf's to the hub, or one end of a leaf-to-leaf link.  [sent] counts
   the data frames (Requests and Replies) queued to the shard at the
   other end — a frame eaten by fault injection was never queued —
   and [taken] those handled from it. *)
type peer = {
  shard : int;
  conn : Conn.t;
  session : Auth.session option;
  mutable sent : int;
  mutable taken : int;
}

(* Hub (shard 0, the parent process): one socket to every leaf, and the
   counts each leaf gave in its latest Idle — [told_sent.(i).(j)] and
   [told_taken.(i).(j)] are what leaf [i] had sent to and taken from
   shard [j].  The termination rule reads them with the hub's own
   counters (see [balanced]). *)
type hub = {
  hpeers : peer array; (* leaves 1 .. n-1, in order *)
  hfaults : Faults.t option;
  told : bool array;
  told_sent : int array array;
  told_taken : int array array;
  remote : remote_stats option array;
  mutable stopping : bool; (* Shutdown sent *)
}

(* Leaf: its socket to the hub at [lpeers.(0)], and one per link at the
   other leaf's index. *)
type leaf = {
  lpeers : peer option array;
  mutable last_idle : string; (* payload of the latest Idle sent *)
  mutable shutdown : bool;
}

let mac_overhead sess = match sess with None -> 0 | Some _ -> 8

type fabric = Inproc | Hub of hub | Leaf of leaf

type t = {
  cluster_mode : mode;
  shards : shard array;
  in_flight : int Atomic.t;
  idle : int Atomic.t;
  carried : int Atomic.t;
  mutable ran : bool;
  (* Deterministic-mode shard-order policy; [None] is the fixed
     round-robin baseline. *)
  mutable det_pick : (n:int -> int) option;
  (* Pairs of leaf shards some proxy connects, [(lo, hi)]: in wire mode
     each gets its own socket. *)
  mutable links : (int * int) list;
  (* How [forward] reaches other shards: in-process inboxes, or — in
     wire mode, after the fork — this process's end of the sockets. *)
  mutable fabric : fabric;
}

let mode t = t.cluster_mode
let set_det_pick t p = t.det_pick <- p
let shard_count t = Array.length t.shards
let kernel t i = t.shards.(i).kernel

let create ?(seed = 0xEDE0L) ?latency cluster_mode ~shards:n () =
  if n <= 0 then invalid_arg "Cluster.create: shards must be positive";
  (match cluster_mode with
  | Wire _ when n > 256 -> invalid_arg "Cluster.create: wire mode caps shards at 256"
  | _ -> ());
  let root = Prng.create seed in
  let streams = Prng.split_n root n in
  let shards =
    Array.init n (fun index ->
        let kernel =
          Kernel.create ~seed:(Prng.next_int64 streams.(index)) ?latency ()
        in
        {
          index;
          kernel;
          inbox = Dqueue.create ~label:(Printf.sprintf "shard-%d" index) ();
          pending = Hashtbl.create 16;
          next_req = 0;
          ctx = None;
        })
  in
  let t =
    {
      cluster_mode;
      shards;
      in_flight = Atomic.make 0;
      idle = Atomic.make 0;
      carried = Atomic.make 0;
      ran = false;
      det_pick = None;
      links = [];
      fabric = Inproc;
    }
  in
  (* Capture a driver context per shard: proxy handlers and injected
     requests invoke through it.  The stashing fiber runs and finishes
     here, before any user code. *)
  Array.iter
    (fun sh ->
      Kernel.spawn_driver sh.kernel ~name:"par-ctx" (fun ctx ->
          sh.ctx <- Some ctx);
      Sched.run (Kernel.sched sh.kernel))
    shards;
  t

let driver t i f = Kernel.spawn_driver t.shards.(i).kernel ~name:"par-driver" f

let post t ~dst m =
  (* in_flight covers the message from before it is visible to the
     receiver until after the receiver has left the idle count — the
     invariant the termination check relies on. *)
  Atomic.incr t.in_flight;
  Atomic.incr t.carried;
  if not (Dqueue.push t.shards.(dst).inbox m) then begin
    Atomic.decr t.in_flight;
    invalid_arg "Cluster: message posted after shutdown"
  end

(* --- Wire framing ---------------------------------------------------- *)

let perr fmt =
  Printf.ksprintf (fun m -> raise (Value.Protocol_error ("cluster: " ^ m))) fmt

let request_body ~target ~op arg = Value.List [ Value.Uid target; Value.Str op; arg ]

let parse_request payload =
  match Bin.decode payload with
  | Value.List [ Value.Uid target; Value.Str op; arg ] -> (target, op, arg)
  | v -> perr "malformed request payload %s" (Value.preview v)

let reply_body (reply : Kernel.reply) =
  match reply with
  | Ok v -> Value.List [ Value.Bool true; v ]
  | Error m -> Value.List [ Value.Bool false; Value.Str m ]

let parse_reply payload : Kernel.reply =
  match Bin.decode payload with
  | Value.List [ Value.Bool true; v ] -> Ok v
  | Value.List [ Value.Bool false; Value.Str m ] -> Error m
  | v -> perr "malformed reply payload %s" (Value.preview v)

let flows_of_kernel k =
  List.map
    (fun (s : Obs.Flow.stage) -> (s.label, s.items_in, s.items_out))
    (Obs.stages (Kernel.obs k))

let meter_to_value (m : Kernel.Meter.snapshot) =
  let n = m.net in
  Value.List
    [
      Value.Int m.invocations; Value.Int m.replies; Value.Int m.activations;
      Value.Int m.ejects_created; Value.Int m.ejects_live; Value.Int m.crashes;
      Value.Int m.timeouts;
      Value.List
        [
          Value.Int n.Eden_net.Net.sent; Value.Int n.delivered; Value.Int n.dropped;
          Value.Int n.dropped_loss; Value.Int n.dropped_partition; Value.Int n.bytes;
        ];
    ]

let meter_of_value v : Kernel.Meter.snapshot =
  match v with
  | Value.List
      [
        Value.Int invocations; Value.Int replies; Value.Int activations;
        Value.Int ejects_created; Value.Int ejects_live; Value.Int crashes;
        Value.Int timeouts;
        Value.List
          [
            Value.Int sent; Value.Int delivered; Value.Int dropped;
            Value.Int dropped_loss; Value.Int dropped_partition; Value.Int bytes;
          ];
      ] ->
      {
        invocations; replies; activations; ejects_created; ejects_live; crashes;
        timeouts;
        net =
          { Eden_net.Net.sent; delivered; dropped; dropped_loss; dropped_partition;
            bytes };
      }
  | v -> perr "malformed meter %s" (Value.preview v)

let stats_payload sh ~link_frames ~failure =
  let m = Kernel.Meter.snapshot sh.kernel in
  let ops =
    Value.List
      (List.map
         (fun (op, n) -> Value.pair (Value.Str op) (Value.Int n))
         (Kernel.op_counts sh.kernel))
  in
  let flows =
    Value.List
      (List.map
         (fun (label, i, o) ->
           Value.List [ Value.Str label; Value.Int i; Value.Int o ])
         (flows_of_kernel sh.kernel))
  in
  Bin.encode
    (Value.List
       [
         meter_to_value m; ops; flows;
         Value.Float (Sched.now (Kernel.sched sh.kernel));
         Value.Int link_frames;
         Value.List (Option.to_list (Option.map (fun m -> Value.Str m) failure));
       ])

let parse_stats payload =
  match Bin.decode payload with
  | Value.List
      [ meter; Value.List ops; Value.List flows; Value.Float mk; Value.Int links; failure ] ->
      {
        r_meter = meter_of_value meter;
        r_ops =
          List.map
            (function
              | Value.List [ Value.Str op; Value.Int n ] -> (op, n)
              | v -> perr "malformed op count %s" (Value.preview v))
            ops;
        r_flows =
          List.map
            (function
              | Value.List [ Value.Str l; Value.Int i; Value.Int o ] -> (l, i, o)
              | v -> perr "malformed flow %s" (Value.preview v))
            flows;
        r_makespan = mk;
        r_link_frames = links;
        r_failure =
          (match failure with
          | Value.List [] -> None
          | Value.List [ Value.Str m ] -> Some m
          | v -> perr "malformed failure %s" (Value.preview v));
      }
  | v -> perr "malformed stats %s" (Value.preview v)

(* The wire copies a value's chunk payloads into the frame and the
   receiver decodes a copy of its own, so the sender's handles end once
   the bytes are queued (or the frame is dropped) — as a handle handed
   over in process ends at its consumer. *)
let release_payloads ps =
  List.iter (function Bin.Payload c -> Chunk.release c | Bin.Flat _ -> ()) ps

let queue_data p ~kind ~src ~seq ps =
  Conn.send_parts ?session:p.session p.conn ~kind ~src ~dst:p.shard ~seq ps;
  p.sent <- p.sent + 1

(* Queue a Request or Reply for shard [dst] on this process's own socket
   to it.  Frames the hub sends pass fault injection first: that is the
   only faultable egress, so a replay's per-frame loss script lines up
   with the frames the hub sends.  Sealing happens only when the frame
   is actually queued — a fault-dropped frame must not advance the MAC
   send counter the receiver never sees. *)
let send t sh ~kind ~dst ~seq v =
  let ps = Bin.parts v in
  (match t.fabric with
  | Inproc -> assert false
  | Hub h -> (
      Atomic.incr t.carried;
      let p = h.hpeers.(dst - 1) in
      let deliver () = queue_data p ~kind ~src:0 ~seq ps in
      match h.hfaults with
      | None -> deliver ()
      | Some fl -> (
          let size = 4 + Frame.header_bytes + Bin.parts_length ps + mac_overhead p.session in
          match Faults.apply fl ~established:true ~size with
          | Faults.Drop -> ()
          | Faults.Delay d ->
              Unix.sleepf d;
              deliver ()
          | Faults.Pass -> deliver ()))
  | Leaf l -> (
      match l.lpeers.(dst) with
      | Some p -> queue_data p ~kind ~src:sh.index ~seq ps
      | None -> perr "leaf %d: no link to shard %d (make its proxies before run)" sh.index dst));
  release_payloads ps

let forward t sh tshard tuid ~op arg =
  let req_id = sh.next_req in
  sh.next_req <- req_id + 1;
  let slot = Ivar.create () in
  Hashtbl.replace sh.pending req_id slot;
  (match t.fabric with
  | Inproc ->
      post t ~dst:tshard
        (Request { req_id; from_shard = sh.index; target = tuid; op; arg })
  | Hub _ | Leaf _ ->
      send t sh ~kind:Frame.Request ~dst:tshard ~seq:req_id (request_body ~target:tuid ~op arg));
  match Ivar.read slot with
  | Ok v -> v
  | Error m -> raise (Kernel.Eden_error m)

let proxy t ~shard ~ops ~target:(tshard, tuid) =
  let sh = t.shards.(shard) in
  if tshard = shard then tuid
  else begin
    let link = (min shard tshard, max shard tshard) in
    if fst link > 0 && not (List.mem link t.links) then t.links <- link :: t.links;
    Kernel.create_eject sh.kernel ~dispatch:Kernel.Serial
      ~type_name:"par-proxy" (fun ctx ~passive:_ ->
        List.map
          (fun op ->
            ( op,
              fun arg ->
                (* The round-trip to the remote shard — socket or inbox —
                   is expected blocking, not a stall (see
                   [Pipeline.stall_report]). *)
                Kernel.with_transport_wait ctx (fun () ->
                    forward t sh tshard tuid ~op arg) ))
          ops)
  end

let inject t sh = function
  | Request { req_id; from_shard; target; op; arg } ->
      let ctx =
        match sh.ctx with
        | Some c -> c
        | None -> assert false
      in
      ignore
        (Sched.spawn (Kernel.sched sh.kernel) ~name:"par-inject" (fun () ->
             let reply = Kernel.invoke ctx target ~op arg in
             post t ~dst:from_shard (Reply { req_id; reply })))
  | Reply { req_id; reply } -> (
      match Hashtbl.find_opt sh.pending req_id with
      | Some slot ->
          Hashtbl.remove sh.pending req_id;
          Ivar.fill slot reply
      | None -> assert false)

let close_all t = Array.iter (fun sh -> Dqueue.close sh.inbox) t.shards

(* Parallel pump loop: run the shard's scheduler to quiescence, then
   look for cross-shard messages.  A shard only joins the idle count
   when both its scheduler and its inbox are drained, and leaves it
   before touching a newly popped message. *)
let shard_loop t sh =
  let n = Array.length t.shards in
  let rec go () =
    Sched.run (Kernel.sched sh.kernel);
    match Dqueue.try_pop sh.inbox with
    | Some m ->
        Atomic.decr t.in_flight;
        inject t sh m;
        go ()
    | None -> (
        let idle_now = 1 + Atomic.fetch_and_add t.idle 1 in
        (* When idle = n no fiber is running anywhere, so in_flight
           cannot rise concurrently: reading 0 here proves global
           quiescence. *)
        if idle_now = n && Atomic.get t.in_flight = 0 then close_all t;
        match Dqueue.pop sh.inbox with
        | None -> ()
        | Some m ->
            Atomic.decr t.idle;
            Atomic.decr t.in_flight;
            inject t sh m;
            go ())
  in
  go ()

(* Deterministic pump: fixed shard order, each scheduler run to
   quiescence before its inbox is drained; repeat until a full pass
   moves no message and none is in flight.  The in_flight check matters:
   a shard late in the pass order can post into an inbox that was
   already drained this pass. *)
let det_loop t =
  let n = Array.length t.shards in
  let pump sh =
    Sched.run (Kernel.sched sh.kernel);
    let rec drain progressed =
      match Dqueue.try_pop sh.inbox with
      | Some m ->
          Atomic.decr t.in_flight;
          inject t sh m;
          drain true
      | None -> progressed
    in
    drain false
  in
  (* One pass visits every shard exactly once.  With no policy the
     visit order is ascending shard index (the historical round-robin);
     a policy repeatedly picks among the shards not yet visited this
     pass, so exploration can reorder cross-shard message handling
     without ever skipping or double-pumping a shard. *)
  let pass () =
    let progressed = ref false in
    match t.det_pick with
    | None -> Array.iter (fun sh -> if pump sh then progressed := true) t.shards;
        !progressed
    | Some pick ->
        let remaining = ref (List.init n Fun.id) in
        while !remaining <> [] do
          let m = List.length !remaining in
          let i = if m = 1 then 0 else pick ~n:m in
          if i < 0 || i >= m then
            invalid_arg
              (Printf.sprintf "Cluster: det_pick returned %d for %d-way pick" i m);
          let shard_idx = List.nth !remaining i in
          remaining := List.filteri (fun j _ -> j <> i) !remaining;
          if pump t.shards.(shard_idx) then progressed := true
        done;
        !progressed
  in
  let progressed = ref true in
  while !progressed || Atomic.get t.in_flight > 0 do
    progressed := pass ()
  done;
  close_all t

(* --- Wire loops ------------------------------------------------------ *)

(* Every frame goes through a buffered [Conn], and a process flushes
   when it is about to block, in [serve].  [pump] adds the one other
   flush: it runs the scheduler to quiescence a slice at a time, and a
   slice that leaves output queued while other fibers can still run
   sends it at once — the rest of the turn may be long (a filter working
   through a 64 KiB chunk), and a Deposit reply should not wait for it.
   What the last slice queues waits for [serve]'s flush, so a turn's
   Request to the hub shares one write with the Idle that follows it. *)
let pump sched ~flush =
  while Sched.step sched do
    if Sched.runnable sched > 0 then flush ()
  done

(* A data frame from [p]: a Request becomes a fiber that invokes its
   target and sends the Reply back to [p]'s shard; a Reply fills its
   slot.  Each socket joins exactly two shards and no process forwards
   frames, so a frame that names any other pair is a protocol error. *)
let take_data t sh p f =
  let hdr = f.Frame.hdr in
  if hdr.dst <> sh.index || hdr.src <> p.shard then
    perr "shard %d: %s frame from shard %d to shard %d on its socket to shard %d" sh.index
      (Frame.kind_name hdr.kind) hdr.src hdr.dst p.shard;
  p.taken <- p.taken + 1;
  if sh.index = 0 then Atomic.incr t.carried;
  match hdr.kind with
  | Frame.Request ->
      let target, op, arg = parse_request f.Frame.payload in
      let ctx = match sh.ctx with Some c -> c | None -> assert false in
      ignore
        (Sched.spawn (Kernel.sched sh.kernel) ~name:"wire-inject" (fun () ->
             let reply = Kernel.invoke ctx target ~op arg in
             send t sh ~kind:Frame.Reply ~dst:p.shard ~seq:hdr.seq (reply_body reply)))
  | _ -> (
      match Hashtbl.find_opt sh.pending hdr.seq with
      | Some slot ->
          Hashtbl.remove sh.pending hdr.seq;
          Ivar.fill slot (parse_reply f.Frame.payload)
      | None -> perr "shard %d: reply for unknown request %d" sh.index hdr.seq)

(* The one wait loop of a wire process, hub or leaf.  Run the scheduler
   to quiescence, give [before_block] its turn, flush every socket and,
   unless [stop ()], wait in [select]: for reading on every open socket,
   and for writing on each one that still has output queued — a flush
   never blocks, so two processes that both have more to send each
   other than a socket holds keep draining each other.  Every whole
   frame a wake-up brings in goes to [handle] before the scheduler runs
   again.  A peer that closes at a frame boundary goes to [closed] and
   leaves the wait set; a close inside a frame is a [Protocol_error]
   ([Conn.fill]). *)
let serve sh peers ~timeout ~stop ~before_block ~handle ~closed =
  let sched = Kernel.sched sh.kernel in
  let by_fd = Hashtbl.create 8 in
  List.iter (fun p -> Hashtbl.replace by_fd (Conn.fd p.conn) p) peers;
  let reading = ref (List.map (fun p -> Conn.fd p.conn) peers) in
  let flush_all () =
    List.iter (fun p -> if Conn.pending p.conn > 0 then Conn.flush p.conn) peers
  in
  let rec drain p =
    match Conn.take ?session:p.session p.conn with
    | Some f ->
        handle p f;
        drain p
    | None -> ()
  in
  let rec loop () =
    pump sched ~flush:flush_all;
    before_block ();
    flush_all ();
    if not (stop ()) then begin
      let writing =
        List.filter_map
          (fun p -> if Conn.pending p.conn > 0 then Some (Conn.fd p.conn) else None)
          peers
      in
      (match Unix.select !reading writing [] timeout with
      | [], [], _ ->
          failwith
            (Printf.sprintf "Cluster: wire shard %d saw no traffic for %.0fs — leaf stalled?"
               sh.index timeout)
      | ready, writable, _ ->
          List.iter (fun fd -> Conn.flush (Hashtbl.find by_fd fd).conn) writable;
          List.iter
            (fun fd ->
              let p = Hashtbl.find by_fd fd in
              match Conn.fill p.conn with
              | () -> drain p
              | exception End_of_file ->
                  reading := List.filter (fun r -> r <> fd) !reading;
                  closed p)
            ready);
      loop ()
    end
  in
  loop ()

(* An Idle frame's payload: for each of the leaf's sockets, the shard at
   the other end (u8), then the data frames sent to it and taken from it
   (i64 each). *)
let idle_entry = 17

let idle_payload peers =
  let b = Bytes.create (idle_entry * List.length peers) in
  List.iteri
    (fun k p ->
      let at = k * idle_entry in
      Bytes.set_uint8 b at p.shard;
      Bytes.set_int64_be b (at + 1) (Int64.of_int p.sent);
      Bytes.set_int64_be b (at + 9) (Int64.of_int p.taken))
    peers;
  Bytes.unsafe_to_string b

(* Leaf process: serve until the hub's Shutdown, answer it with a Stats
   frame, and return once that is written.  About to block with counts
   that changed since its last Idle, a leaf queues a new Idle on its hub
   socket, where it shares a write with whatever else is queued there.
   A link whose peer closed at a frame boundary has shut down: that peer
   got its Shutdown first. *)
let leaf_loop t sh l =
  (* The hub socket last: a flush writes the link frames that other
     leaves wait for before the Idle that only feeds termination. *)
  let hub = Option.get l.lpeers.(0) in
  let peers = List.filter_map Fun.id (Array.to_list l.lpeers) in
  let peers = List.filter (fun p -> p.shard <> 0) peers @ [ hub ] in
  let before_block () =
    if not l.shutdown then begin
      let report = idle_payload peers in
      if not (String.equal report l.last_idle) then begin
        Conn.send ?session:hub.session hub.conn
          (Frame.make ~kind:Frame.Idle ~src:sh.index ~dst:0 report);
        l.last_idle <- report
      end
    end
  in
  let handle p f =
    match f.Frame.hdr.kind with
    | Frame.Request | Frame.Reply -> take_data t sh p f
    | Frame.Shutdown when p.shard = 0 ->
        l.shutdown <- true;
        let failure =
          match Sched.check_failures (Kernel.sched sh.kernel) with
          | () -> None
          | exception Failure m -> Some m
        in
        let link_frames =
          List.fold_left (fun a p -> if p.shard = 0 then a else a + p.sent) 0 peers
        in
        Conn.send ?session:hub.session hub.conn
          (Frame.make ~kind:Frame.Stats ~src:sh.index ~dst:0
             (stats_payload sh ~link_frames ~failure))
    | k -> perr "leaf %d: unexpected %s frame from shard %d" sh.index (Frame.kind_name k) p.shard
  in
  let closed p = if p.shard = 0 then perr "leaf %d: the hub closed its socket" sh.index in
  serve sh peers ~timeout:(-1.0)
    ~stop:(fun () -> l.shutdown && List.for_all (fun p -> Conn.pending p.conn = 0) peers)
    ~before_block ~handle ~closed

(* Termination: the hub is idle — its scheduler quiescent, every whole
   frame it has read handled — and every directed socket balances: its
   sender's count of data frames sent equals its receiver's count taken.
   The hub reads its own counters for its sockets and each leaf's latest
   Idle for the rest.  Each socket is FIFO and every Idle reports a
   leaf about to block, so equal counts mean no frame crosses the cut of
   those reports in either direction: a consistent global state in which
   every process is idle and nothing is in flight (DESIGN.md §13). *)
let balanced t h =
  Array.for_all
    (fun p ->
      let i = p.shard in
      h.told.(i) && p.sent = h.told_taken.(i).(0) && h.told_sent.(i).(0) = p.taken)
    h.hpeers
  && List.for_all
       (fun (a, b) ->
         h.told_sent.(a).(b) = h.told_taken.(b).(a)
         && h.told_sent.(b).(a) = h.told_taken.(a).(b))
       t.links

let take_idle h ~n p payload =
  let len = String.length payload in
  if len mod idle_entry <> 0 then perr "hub: %d-byte idle from shard %d" len p.shard;
  for k = 0 to (len / idle_entry) - 1 do
    let at = k * idle_entry in
    let j = String.get_uint8 payload at in
    if j >= n || j = p.shard then perr "hub: idle from shard %d counts shard %d" p.shard j;
    h.told_sent.(p.shard).(j) <- Int64.to_int (String.get_int64_be payload (at + 1));
    h.told_taken.(p.shard).(j) <- Int64.to_int (String.get_int64_be payload (at + 9))
  done;
  h.told.(p.shard) <- true

exception Leaf_closed of int

(* Hub: serve until the cluster terminates, then send every leaf
   Shutdown and serve until each has answered with its Stats.  A leaf
   that closes its socket before its Stats has died. *)
let hub_loop t h =
  let n = Array.length t.shards in
  let sh0 = t.shards.(0) in
  let handle p f =
    match f.Frame.hdr.kind with
    | Frame.Request | Frame.Reply -> take_data t sh0 p f
    | Frame.Idle -> take_idle h ~n p f.Frame.payload
    | Frame.Stats when h.stopping && h.remote.(p.shard) = None ->
        h.remote.(p.shard) <- Some (parse_stats f.Frame.payload)
    | k -> perr "hub: unexpected %s frame from shard %d" (Frame.kind_name k) p.shard
  in
  let closed p = if h.remote.(p.shard) = None then raise (Leaf_closed p.shard) in
  let peers = Array.to_list h.hpeers in
  let serve stop = serve sh0 peers ~timeout:30.0 ~stop ~before_block:ignore ~handle ~closed in
  serve (fun () -> balanced t h);
  h.stopping <- true;
  List.iter
    (fun p ->
      Conn.send ?session:p.session p.conn (Frame.make ~kind:Frame.Shutdown ~src:0 ~dst:p.shard ""))
    peers;
  serve (fun () -> List.for_all (fun p -> h.remote.(p.shard) <> None) peers)

let status_text = function
  | Unix.WEXITED c -> Printf.sprintf "exited %d" c
  | Unix.WSIGNALED s -> Printf.sprintf "killed by signal %d" s
  | Unix.WSTOPPED s -> Printf.sprintf "stopped by signal %d" s

(* Fork one process per leaf shard after the topology is built: every
   closure, Eject and UID crosses by inheritance, so both sides of each
   proxy already agree on names without any wire-level bootstrap.  The
   leaf-to-leaf links are made before the fork, so each is a connected
   pair whose two ends only the two leaves keep. *)
let wire_run t cfg =
  let n = Array.length t.shards in
  if n = 1 then det_loop t
  else begin
    (* Leaves write only to their sockets; make a dead peer surface as an
       orderly EPIPE-free read error, and keep buffered output from
       being flushed twice across the fork. *)
    flush stdout;
    flush stderr;
    let prev_sigpipe =
      try Some (Sys.signal Sys.sigpipe Sys.Signal_ignore)
      with Invalid_argument _ | Sys_error _ -> None
    in
    let server = Transport.listen cfg.wire_transport in
    let nonce = Random.State.bits64 (Random.State.make_self_init ()) in
    let pids = Array.make n 0 in
    let status = Array.make n None in
    (* Every descriptor the hub holds for the run, closed on every way
       out of it. *)
    let held = ref [] in
    let hold fd =
      held := fd :: !held;
      fd
    in
    let close_held fds =
      List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) fds;
      held := List.filter (fun fd -> not (List.mem fd fds)) !held
    in
    let reap i =
      if pids.(i) > 0 && status.(i) = None then
        status.(i) <-
          (try Some (snd (Unix.waitpid [] pids.(i))) with Unix.Unix_error _ -> None)
    in
    let finish () =
      close_held !held;
      Transport.close_server server;
      match prev_sigpipe with
      | Some b -> ( try Sys.set_signal Sys.sigpipe b with _ -> ())
      | None -> ()
    in
    let session token = Option.map (fun c -> Auth.session c ~token) cfg.wire_auth in
    let link_session a b =
      Option.map (fun c -> Auth.session c ~token:(Auth.link_token c ~nonce a b)) cfg.wire_auth
    in
    let peer shard fd session = { shard; conn = Conn.create fd; session; sent = 0; taken = 0 } in
    match
      let ends =
        List.map
          (fun (a, b) ->
            let fa, fb = Transport.pair cfg.wire_transport in
            (a, b, hold fa, hold fb))
          t.links
      in
      for i = 1 to n - 1 do
        match Unix.fork () with
        | 0 -> (
            (* Leaf process for shard i. *)
            try
              List.iter
                (fun (a, b, fa, fb) ->
                  if a <> i then Unix.close fa;
                  if b <> i then Unix.close fb)
                ends;
              let conn = Transport.dial server in
              let hub_session =
                match cfg.wire_auth with
                | None ->
                    Frame.write conn (Frame.hello ~shard:i ~nonce);
                    let shard, n2 =
                      Frame.parse_handshake ~expect:Frame.Welcome (Frame.read conn)
                    in
                    if shard <> i || not (Int64.equal n2 nonce) then
                      perr "leaf %d: welcome names shard %d" i shard;
                    None
                | Some c -> (
                    Frame.write conn (Auth.hello c ~shard:i ~nonce);
                    match Auth.verify_welcome c ~expect_nonce:nonce (Frame.read conn) with
                    | Error reason -> perr "leaf %d: %s" i reason
                    | Ok token -> session token)
              in
              let lpeers = Array.make n None in
              lpeers.(0) <- Some (peer 0 conn hub_session);
              List.iter
                (fun (a, b, fa, fb) ->
                  if a = i then lpeers.(b) <- Some (peer b fa (link_session a b))
                  else if b = i then lpeers.(a) <- Some (peer a fb (link_session a b)))
                ends;
              let l = { lpeers; last_idle = ""; shutdown = false } in
              t.fabric <- Leaf l;
              leaf_loop t t.shards.(i) l;
              (* _exit: skip at_exit handlers (test-runner reporting,
                 buffered IO) inherited from the parent image. *)
              Unix._exit 0
            with e ->
              Printf.eprintf "eden-wire leaf %d: %s\n%!" i (Printexc.to_string e);
              Unix._exit 2)
        | pid -> pids.(i) <- pid
      done;
      close_held (List.concat_map (fun (_, _, fa, fb) -> [ fa; fb ]) ends);
      let conns = Array.make n None in
      let hsessions = Array.make n None in
      for _ = 1 to n - 1 do
        let fd = hold (Transport.accept server) in
        let shard, n2, token =
          match cfg.wire_auth with
          | None ->
              let shard, n2 = Frame.parse_handshake ~expect:Frame.Hello (Frame.read fd) in
              (shard, n2, None)
          | Some c -> (
              match
                Auth.verify_hello
                  ~lookup:(fun id -> if Int64.equal id c.Auth.id then Some c else None)
                  (Frame.read fd)
              with
              | Error reason -> perr "hub: %s" reason
              | Ok (shard, n2, c) -> (shard, n2, Some (Auth.mint_token c ~shard ~nonce)))
        in
        if shard < 1 || shard >= n then perr "hub: hello from shard %d" shard;
        if conns.(shard) <> None then perr "hub: duplicate hello from shard %d" shard;
        if not (Int64.equal n2 nonce) then perr "hub: hello nonce mismatch from shard %d" shard;
        conns.(shard) <- Some fd;
        match (cfg.wire_auth, token) with
        | Some c, Some token ->
            Frame.write fd (Auth.welcome c ~shard ~nonce ~token);
            hsessions.(shard) <- session token
        | _ -> Frame.write fd (Frame.welcome ~shard ~nonce)
      done;
      let h =
        {
          hpeers =
            Array.init (n - 1) (fun k ->
                peer (k + 1) (Option.get conns.(k + 1)) hsessions.(k + 1));
          hfaults = cfg.wire_faults;
          told = Array.make n false;
          told_sent = Array.make_matrix n n 0;
          told_taken = Array.make_matrix n n 0;
          remote = Array.make n None;
          stopping = false;
        }
      in
      t.fabric <- Hub h;
      hub_loop t h
    with
    | exception e -> (
        Array.iteri
          (fun i pid ->
            if i > 0 && pid > 0 then try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ())
          pids;
        for i = 1 to n - 1 do
          reap i
        done;
        finish ();
        match e with
        | Leaf_closed i ->
            failwith
              (Printf.sprintf "Cluster: wire leaf %d closed its socket mid-run (%s)" i
                 (Option.fold ~none:"not reaped" ~some:status_text status.(i)))
        | e -> raise e)
    | () ->
        finish ();
        for i = 1 to n - 1 do
          reap i
        done;
        Array.iteri
          (fun i st ->
            match st with
            | Some (Unix.WEXITED 0) -> ()
            | Some st -> failwith (Printf.sprintf "Cluster: wire leaf %d %s" i (status_text st))
            | None when i > 0 ->
                failwith (Printf.sprintf "Cluster: wire leaf %d could not be reaped" i)
            | None -> ())
          status
  end

let run t =
  if t.ran then invalid_arg "Cluster.run: already run";
  t.ran <- true;
  (match t.cluster_mode with
  | Deterministic -> det_loop t
  | Parallel ->
      let domains =
        Array.map (fun sh -> Domain.spawn (fun () -> shard_loop t sh)) t.shards
      in
      Array.iter Domain.join domains
  | Wire cfg -> wire_run t cfg);
  match t.fabric with
  | Hub h ->
      (* Only the hub shard's fibers live in this process; each leaf
         sent its first fiber failure with its Stats. *)
      Sched.check_failures (Kernel.sched t.shards.(0).kernel);
      Array.iteri
        (fun i r ->
          match r with
          | Some { r_failure = Some m; _ } ->
              failwith (Printf.sprintf "Cluster: wire leaf %d: %s" i m)
          | _ -> ())
        h.remote
  | Inproc | Leaf _ ->
      Array.iter (fun sh -> Sched.check_failures (Kernel.sched sh.kernel)) t.shards

(* --- Aggregated accessors -------------------------------------------- *)

(* In wire mode (after [run]) the parent's copies of leaf kernels are
   stale pre-fork snapshots; aggregate shard 0 with the stats each leaf
   reported at shutdown instead. *)

let remote_list t =
  match t.fabric with
  | Hub h ->
      Some
        (List.filter_map Fun.id
           (Array.to_list (Array.sub h.remote 1 (Array.length t.shards - 1))))
  | Inproc | Leaf _ -> None

let cross_messages t =
  let links =
    match remote_list t with
    | Some remotes -> List.fold_left (fun a r -> a + r.r_link_frames) 0 remotes
    | None -> 0
  in
  Atomic.get t.carried + links

let meter t =
  match remote_list t with
  | Some remotes ->
      List.fold_left
        (fun acc r -> Kernel.Meter.add acc r.r_meter)
        (Kernel.Meter.snapshot t.shards.(0).kernel)
        remotes
  | None ->
      Array.fold_left
        (fun acc sh -> Kernel.Meter.add acc (Kernel.Meter.snapshot sh.kernel))
        Kernel.Meter.zero t.shards

let op_counts t =
  let tbl = Hashtbl.create 16 in
  let add (op, n) =
    Hashtbl.replace tbl op (n + Option.value ~default:0 (Hashtbl.find_opt tbl op))
  in
  (match remote_list t with
  | Some remotes ->
      List.iter add (Kernel.op_counts t.shards.(0).kernel);
      List.iter (fun r -> List.iter add r.r_ops) remotes
  | None -> Array.iter (fun sh -> List.iter add (Kernel.op_counts sh.kernel)) t.shards);
  Hashtbl.fold (fun op n acc -> (op, n) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let flows t =
  let all =
    match remote_list t with
    | Some remotes ->
        flows_of_kernel t.shards.(0).kernel
        @ List.concat_map (fun r -> r.r_flows) remotes
    | None ->
        Array.fold_left
          (fun acc sh -> flows_of_kernel sh.kernel @ acc)
          [] t.shards
  in
  List.sort compare all

let histograms t =
  let tbl = Hashtbl.create 16 in
  let fold k =
    List.iter
      (fun (name, h) ->
        match Hashtbl.find_opt tbl name with
        | None -> Hashtbl.add tbl name h
        | Some into -> Obs.Histogram.merge ~into h)
      (Obs.histograms (Kernel.obs k))
  in
  (match remote_list t with
  | Some _ ->
      (* Wall-clock timing makes leaf histograms transport-dependent;
         wire mode reports the hub shard only. *)
      fold t.shards.(0).kernel
  | None -> Array.iter (fun sh -> fold sh.kernel) t.shards);
  Hashtbl.fold (fun name h acc -> (name, h) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let makespans t =
  match remote_list t with
  | Some _ -> (
      let h = match t.fabric with Hub h -> h | _ -> assert false in
      Array.init (Array.length t.shards) (fun i ->
          if i = 0 then Sched.now (Kernel.sched t.shards.(0).kernel)
          else match h.remote.(i) with Some r -> r.r_makespan | None -> 0.0))
  | None ->
      Array.map (fun sh -> Sched.now (Kernel.sched sh.kernel)) t.shards
