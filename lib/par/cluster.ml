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
  (* When set, every frame on every socket is sealed with an 8-byte MAC
     trailer under a token both ends of the socket derive.  [None] is the
     plain wire — the benchmark baseline (A1 measures the difference). *)
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
  (* The next three fields are touched only by the shard's own domain:
     [forward] and the fibers serving requests run on this shard,
     [inject] in its pump loop.  [sent] counts the Requests and Replies
     the shard has sent other shards. *)
  pending : (int, Kernel.reply Ivar.t) Hashtbl.t;
  mutable next_req : int;
  mutable sent : int;
  mutable ctx : Kernel.ctx option;
  (* In the wire process that serves the shard ([serve] sets them): its
     sockets, its [select] wake-ups and the Idle frames it sent. *)
  mutable conns : Conn.t list;
  mutable wakeups : int;
  mutable idles : int;
}

type wire_counts = { wakeups : int; reads : int; writes : int; idles : int }

(* What one shard did in a run: its meter, op counts, flows, final
   virtual time, the Requests and Replies it sent, its first fiber
   failure and the traffic of the wire process that served it.
   [result_of] reads it from the shard's own kernel, and a wire leaf
   sends exactly this record in its [Stats] frame.  Histograms are
   deliberately absent: wall-clock timing makes them
   transport-dependent, so wire-mode histograms cover the hub shard
   only. *)
type result = {
  meter : Kernel.Meter.snapshot;
  ops : (string * int) list;
  flows : (string * int * int) list;
  makespan : float;
  sent : int;
  failure : string option;
  wire : wire_counts;
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
   counts each leaf gave in its latest report — [told_sent.(i).(j)] and
   [told_taken.(i).(j)] are what leaf [i] had sent to and taken from
   shard [j].  The termination rule reads them with the hub's own
   counters (see [balanced]).  A report answers a probe: a wave is the
   probe the hub sends every leaf under one 32-bit epoch, open until
   each leaf has answered it. *)
type hub = {
  hpeers : peer array; (* leaves 1 .. n-1, in order *)
  hfaults : Faults.t option;
  answered : int array; (* epoch of each leaf's latest report; -1 before its first *)
  told_sent : int array array;
  told_taken : int array array;
  reports : result option array; (* each leaf's, once its Stats arrives *)
  mutable epoch : int; (* the latest wave's *)
  mutable awaiting : int; (* leaves yet to answer it; 0: no wave open *)
  mutable stopping : bool; (* Shutdown sent *)
}

(* Leaf: its socket to the hub at [lpeers.(0)], and one per link at the
   other leaf's index. *)
type leaf = {
  lpeers : peer option array;
  mutable probe : int; (* epoch of the probe to answer at the next block; -1: none *)
  mutable shutdown : bool;
}

let mac_overhead sess = match sess with None -> 0 | Some _ -> 8

type fabric = Inproc | Hub of hub | Leaf of leaf

type t = {
  cluster_mode : mode;
  shards : shard array;
  (* Termination: busy shards plus messages posted and not yet popped.
     [Parallel] counts every shard busy until its loop first blocks;
     [det_loop] decides termination itself and counts no shard, so
     there it is the messages in flight. *)
  active : int Atomic.t;
  mutable ran : bool;
  (* Deterministic-mode shard-order policy; [None] is the fixed
     round-robin baseline. *)
  mutable det_pick : (n:int -> int) option;
  (* Pairs of leaf shards some proxy connects, [(lo, hi)]: in wire mode
     each gets its own socket. *)
  mutable links : (int * int) list;
  (* How [forward] and [serve_request] reach other shards: in-process
     inboxes, or — in wire mode, after the fork — this process's end of
     the sockets. *)
  mutable fabric : fabric;
}

let mode t = t.cluster_mode
let set_det_pick t p = t.det_pick <- p
let shard_count t = Array.length t.shards
let kernel t i = t.shards.(i).kernel

let create ?(seed = 0xEDE0L) cluster_mode ~shards:n () =
  if n <= 0 then invalid_arg "Cluster.create: shards must be positive";
  (match cluster_mode with
  | Wire _ when n > 256 -> invalid_arg "Cluster.create: wire mode caps shards at 256"
  | _ -> ());
  let root = Prng.create seed in
  let streams = Prng.split_n root n in
  let shards =
    Array.init n (fun index ->
        let kernel =
          Kernel.create ~seed:(Prng.next_int64 streams.(index)) ()
        in
        {
          index;
          kernel;
          inbox = Dqueue.create ();
          pending = Hashtbl.create 16;
          next_req = 0;
          sent = 0;
          ctx = None;
          conns = [];
          wakeups = 0;
          idles = 0;
        })
  in
  let t =
    {
      cluster_mode;
      shards;
      active = Atomic.make (match cluster_mode with Parallel -> n | Deterministic | Wire _ -> 0);
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

let post t (sh : shard) ~dst m =
  (* Counted before it is visible to the receiver, so [active] never
     reads 0 while the message waits in an inbox. *)
  Atomic.incr t.active;
  sh.sent <- sh.sent + 1;
  if not (Dqueue.push t.shards.(dst).inbox m) then begin
    Atomic.decr t.active;
    invalid_arg "Cluster: message posted after shutdown"
  end

let result_of (sh : shard) =
  let k = sh.kernel in
  {
    meter = Kernel.Meter.snapshot k;
    ops = Kernel.op_counts k;
    flows =
      List.map
        (fun (s : Obs.Flow.stage) -> (s.label, s.items_in, s.items_out))
        (Obs.stages (Kernel.obs k));
    makespan = Sched.now (Kernel.sched k);
    sent = sh.sent;
    failure =
      (match Sched.check_failures (Kernel.sched k) with
      | () -> None
      | exception Failure m -> Some m);
    wire =
      {
        wakeups = sh.wakeups;
        reads = List.fold_left (fun a c -> a + Conn.reads c) 0 sh.conns;
        writes = List.fold_left (fun a c -> a + Conn.writes c) 0 sh.conns;
        idles = sh.idles;
      };
  }

(* --- Wire framing ---------------------------------------------------- *)

let perr fmt =
  Printf.ksprintf (fun m -> raise (Value.Protocol_error ("cluster: " ^ m))) fmt

(* Every frame kind is decoded where it lies in the input buffer. *)
let decode (f : Conn.view) = Bin.decode_sub f.buf ~pos:f.pos ~len:f.len

let request_body ~target ~op arg = Value.List [ Value.Uid target; Value.Str op; arg ]

let parse_request f =
  match decode f with
  | Value.List [ Value.Uid target; Value.Str op; arg ] -> (target, op, arg)
  | v -> perr "malformed request payload %s" (Value.preview v)

let reply_body (reply : Kernel.reply) =
  match reply with
  | Ok v -> Value.List [ Value.Bool true; v ]
  | Error m -> Value.List [ Value.Bool false; Value.Str m ]

let parse_reply f : Kernel.reply =
  match decode f with
  | Value.List [ Value.Bool true; v ] -> Ok v
  | Value.List [ Value.Bool false; Value.Str m ] -> Error m
  | v -> perr "malformed reply payload %s" (Value.preview v)

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

(* A [Stats] frame's payload: a [result], field by field. *)
let stats_payload r =
  Bin.encode
    (Value.List
       [
         meter_to_value r.meter;
         Value.List (List.map (fun (op, n) -> Value.pair (Value.Str op) (Value.Int n)) r.ops);
         Value.List
           (List.map
              (fun (label, i, o) -> Value.List [ Value.Str label; Value.Int i; Value.Int o ])
              r.flows);
         Value.Float r.makespan;
         Value.Int r.sent;
         Value.List (Option.to_list (Option.map (fun m -> Value.Str m) r.failure));
         Value.List
           [ Value.Int r.wire.wakeups; Value.Int r.wire.reads; Value.Int r.wire.writes;
             Value.Int r.wire.idles ];
       ])

let parse_stats f =
  match decode f with
  | Value.List
      [
        meter; Value.List ops; Value.List flows; Value.Float makespan; Value.Int sent; failure;
        Value.List [ Value.Int wakeups; Value.Int reads; Value.Int writes; Value.Int idles ];
      ] ->
      {
        meter = meter_of_value meter;
        ops =
          List.map
            (function
              | Value.List [ Value.Str op; Value.Int n ] -> (op, n)
              | v -> perr "malformed op count %s" (Value.preview v))
            ops;
        flows =
          List.map
            (function
              | Value.List [ Value.Str l; Value.Int i; Value.Int o ] -> (l, i, o)
              | v -> perr "malformed flow %s" (Value.preview v))
            flows;
        makespan;
        sent;
        failure =
          (match failure with
          | Value.List [] -> None
          | Value.List [ Value.Str m ] -> Some m
          | v -> perr "malformed failure %s" (Value.preview v));
        wire = { wakeups; reads; writes; idles };
      }
  | v -> perr "malformed stats %s" (Value.preview v)

(* The wire copies a value's chunk payloads into the frame and the
   receiver decodes them from its input buffer into roots of its own,
   so the sender's handles end once the bytes are queued (or the frame
   is dropped) — as a handle handed over in process ends at its
   consumer. *)
let release_payloads ps =
  List.iter (function Bin.Payload c -> Chunk.release c | Bin.Flat _ -> ()) ps

let queue_data p ~kind ~src ~seq ps =
  Conn.send_parts ?session:p.session p.conn ~kind ~src ~dst:p.shard ~seq ps;
  p.sent <- p.sent + 1

(* Queue a Request or Reply for shard [dst] on this process's own socket
   to it.  The shard counts it as sent first, so a frame the hub's fault
   injection drops still counts in [cross_messages].  Frames the hub
   sends pass fault injection: that is the only faultable egress, so a
   replay's per-frame loss script lines up with the frames the hub
   sends.  Sealing happens only when the frame is actually queued — a
   fault-dropped frame must not advance the MAC send counter the
   receiver never sees. *)
let send t (sh : shard) ~kind ~dst ~seq v =
  sh.sent <- sh.sent + 1;
  let ps = Bin.parts v in
  (match t.fabric with
  | Inproc -> assert false
  | Hub h -> (
      let p = h.hpeers.(dst - 1) in
      let deliver () = queue_data p ~kind ~src:0 ~seq ps in
      match h.hfaults with
      | None -> deliver ()
      | Some fl -> (
          let size = 4 + Frame.header_bytes + Bin.parts_length ps + mac_overhead p.session in
          match Faults.apply fl ~size with
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
      post t sh ~dst:tshard (Request { req_id; from_shard = sh.index; target = tuid; op; arg })
  | Hub _ | Leaf _ ->
      send t sh ~kind:Frame.Request ~dst:tshard ~seq:req_id (request_body ~target:tuid ~op arg));
  match Ivar.read slot with
  | Ok v -> v
  | Error m -> raise (Kernel.Eden_error m)

let proxy t ~shard ~ops ~target:(tshard, tuid) =
  (* Checked here: a bad index would otherwise surface only inside [run],
     after [post] had already counted the message in flight. *)
  let check what i =
    let n = Array.length t.shards in
    if i < 0 || i >= n then
      invalid_arg (Printf.sprintf "Cluster.proxy: %s %d outside [0, %d)" what i n)
  in
  check "shard" shard;
  check "target shard" tshard;
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

(* Serve a Request from shard [from]: a fresh fiber invokes the target
   through the context the shard captured at creation and answers by
   the fabric [forward] uses, an inbox or the socket to [from]. *)
let serve_request t sh ~from ~req_id target ~op arg =
  ignore
    (Sched.spawn (Kernel.sched sh.kernel) ~name:"par-serve" (fun () ->
         let reply = Kernel.invoke (Option.get sh.ctx) target ~op arg in
         match t.fabric with
         | Inproc -> post t sh ~dst:from (Reply { req_id; reply })
         | Hub _ | Leaf _ -> send t sh ~kind:Frame.Reply ~dst:from ~seq:req_id (reply_body reply)))

let fill_reply sh ~req_id reply =
  match Hashtbl.find_opt sh.pending req_id with
  | Some slot ->
      Hashtbl.remove sh.pending req_id;
      Ivar.fill slot reply
  | None -> perr "shard %d: reply for unknown request %d" sh.index req_id

let inject t sh = function
  | Request { req_id; from_shard; target; op; arg } ->
      serve_request t sh ~from:from_shard ~req_id target ~op arg
  | Reply { req_id; reply } -> fill_reply sh ~req_id reply

let close_all t = Array.iter (fun sh -> Dqueue.close sh.inbox) t.shards

(* Parallel pump loop: run the shard's scheduler to quiescence, then
   look for cross-shard messages.  A busy shard that pops a message
   gives up the message's unit of [active]; a shard about to block gives
   up its own, and one woken by a message keeps that message's unit as
   its own.  Only busy shards post, so once [active] reaches 0 no shard
   is busy, no inbox holds a message and none can arrive: the shard that
   takes it there closes every inbox. *)
let shard_loop t sh =
  let rec go () =
    Sched.run (Kernel.sched sh.kernel);
    match Dqueue.try_pop sh.inbox with
    | Some m ->
        Atomic.decr t.active;
        inject t sh m;
        go ()
    | None -> (
        if Atomic.fetch_and_add t.active (-1) = 1 then close_all t;
        match Dqueue.pop sh.inbox with
        | None -> ()
        | Some m ->
            inject t sh m;
            go ())
  in
  go ()

(* Deterministic pump: fixed shard order, each scheduler run to
   quiescence before its inbox is drained; repeat until a full pass
   moves no message and none is in flight.  The [active] check matters:
   a shard late in the pass order can post into an inbox that was
   already drained this pass. *)
let det_loop t =
  let n = Array.length t.shards in
  let pump sh =
    Sched.run (Kernel.sched sh.kernel);
    let rec drain progressed =
      match Dqueue.try_pop sh.inbox with
      | Some m ->
          Atomic.decr t.active;
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
  while !progressed || Atomic.get t.active > 0 do
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
   What the last slice queues waits for [serve]'s flush, so the frames a
   turn ends with share one write. *)
let pump sched ~flush =
  while Sched.step sched do
    if Sched.runnable sched > 0 then flush ()
  done

(* A data frame from [p], served as [inject] serves a message.  Each
   socket joins exactly two shards and no process forwards frames, so a
   frame that names any other pair is a protocol error. *)
let take_data t sh p (f : Conn.view) =
  let hdr = f.hdr in
  if hdr.dst <> sh.index || hdr.src <> p.shard then
    perr "shard %d: %s frame from shard %d to shard %d on its socket to shard %d" sh.index
      (Frame.kind_name hdr.kind) hdr.src hdr.dst p.shard;
  p.taken <- p.taken + 1;
  match hdr.kind with
  | Frame.Request ->
      let target, op, arg = parse_request f in
      serve_request t sh ~from:p.shard ~req_id:hdr.seq target ~op arg
  | _ -> fill_reply sh ~req_id:hdr.seq (parse_reply f)

(* The one wait loop of a wire process, hub or leaf.  Run the scheduler
   to quiescence, give [before_block] its turn, flush every socket and,
   unless [stop ()], wait in [select]: for reading on every open socket,
   and for writing on each one that still has output queued — a flush
   never blocks, so two processes that both have more to send each
   other than a socket holds keep draining each other.  Every whole
   frame a wake-up brings in goes to [handle] before the scheduler runs
   again, as a view of its connection's input buffer that the next
   [Conn.fill] overwrites, so [handle] decodes it at once.  A peer that
   closes at a frame boundary goes to [closed] and leaves the wait set;
   a close inside a frame is a [Protocol_error] ([Conn.fill]).
   [wait quiet] bounds each [select] (negative: no bound), where [quiet]
   is the time the process has spent in [select] since a socket last
   woke it; a [select] that times out passes the new [quiet] to
   [silent]. *)
let serve sh peers ~wait ~silent ~stop ~before_block ~handle ~closed =
  let sched = Kernel.sched sh.kernel in
  sh.conns <- List.map (fun p -> p.conn) peers;
  let by_fd = Hashtbl.create 8 in
  List.iter (fun p -> Hashtbl.replace by_fd (Conn.fd p.conn) p) peers;
  let reading = ref (List.map (fun p -> Conn.fd p.conn) peers) in
  let flush_all () =
    List.iter (fun p -> if Conn.pending p.conn > 0 then Conn.flush p.conn) peers
  in
  let rec drain p =
    match Conn.take_view ?session:p.session p.conn with
    | Some f ->
        handle p f;
        drain p
    | None -> ()
  in
  let rec loop quiet =
    pump sched ~flush:flush_all;
    before_block ();
    flush_all ();
    if not (stop ()) then begin
      let writing =
        List.filter_map
          (fun p -> if Conn.pending p.conn > 0 then Some (Conn.fd p.conn) else None)
          peers
      in
      let timeout = wait quiet in
      let ready = Unix.select !reading writing [] timeout in
      sh.wakeups <- sh.wakeups + 1;
      match ready with
      | [], [], _ ->
          let quiet = quiet +. timeout in
          silent quiet;
          loop quiet
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
            ready;
          loop 0.0
    end
  in
  loop 0.0

(* An Idle frame's payload from a leaf: for each of its sockets, the
   shard at the other end (u8), then the data frames sent to it and
   taken from it (i64 each).  The hub's probe has an empty payload. *)
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
   frame, and return once that is written.  A leaf reports only when
   probed: the hub's Idle arms it with the wave's epoch, and the next
   time it is about to block it queues one Idle with that epoch and its
   counts on its hub socket.  A link whose peer closed at a frame
   boundary has shut down: that peer got its Shutdown first. *)
let leaf_loop t sh l =
  (* The hub socket last: a flush writes the link frames that other
     leaves wait for before the report that only feeds termination. *)
  let hub = Option.get l.lpeers.(0) in
  let peers = List.filter_map Fun.id (Array.to_list l.lpeers) in
  let peers = List.filter (fun p -> p.shard <> 0) peers @ [ hub ] in
  let before_block () =
    if l.probe >= 0 && not l.shutdown then begin
      Conn.send ?session:hub.session hub.conn
        (Frame.make ~kind:Frame.Idle ~src:sh.index ~dst:0 ~seq:l.probe (idle_payload peers));
      sh.idles <- sh.idles + 1;
      l.probe <- -1
    end
  in
  let handle p (f : Conn.view) =
    match f.hdr.kind with
    | Frame.Request | Frame.Reply -> take_data t sh p f
    | Frame.Idle when p.shard = 0 && f.len = 0 -> l.probe <- f.hdr.seq
    | Frame.Shutdown when p.shard = 0 ->
        l.shutdown <- true;
        Conn.send ?session:hub.session hub.conn
          (Frame.make ~kind:Frame.Stats ~src:sh.index ~dst:0 (stats_payload (result_of sh)))
    | k -> perr "leaf %d: unexpected %s frame from shard %d" sh.index (Frame.kind_name k) p.shard
  in
  let closed p = if p.shard = 0 then perr "leaf %d: the hub closed its socket" sh.index in
  serve sh peers
    ~wait:(fun _ -> -1.0)
    ~silent:ignore
    ~stop:(fun () -> l.shutdown && List.for_all (fun p -> Conn.pending p.conn = 0) peers)
    ~before_block ~handle ~closed

(* Termination: the hub is idle — its scheduler quiescent, every whole
   frame it has read handled — and every directed socket balances: its
   sender's count of data frames sent equals its receiver's count taken.
   The hub reads its own counters for its sockets and each leaf's latest
   report for the rest.  Each socket is FIFO and every report comes from
   a leaf about to block, so equal counts mean no frame crosses the cut
   of those reports in either direction: a consistent global state in
   which every process is idle and nothing is in flight (DESIGN.md §13).
   The reports need not come from one wave. *)
let balanced t h =
  Array.for_all
    (fun p ->
      let i = p.shard in
      h.answered.(i) >= 0 && p.sent = h.told_taken.(i).(0) && h.told_sent.(i).(0) = p.taken)
    h.hpeers
  && List.for_all
       (fun (a, b) ->
         h.told_sent.(a).(b) = h.told_taken.(b).(a)
         && h.told_sent.(b).(a) = h.told_taken.(a).(b))
       t.links

(* A leaf's answer to the open wave.  A report for any other epoch, or
   a second one for this, is a protocol error: a leaf reports only when
   probed, once per probe. *)
let take_idle h ~n p (f : Conn.view) =
  let i = p.shard in
  if f.hdr.seq <> h.epoch || h.answered.(i) = h.epoch then
    perr "hub: shard %d reports for epoch %d, not the open wave's" i f.hdr.seq;
  if f.len mod idle_entry <> 0 then perr "hub: %d-byte idle from shard %d" f.len i;
  for k = 0 to (f.len / idle_entry) - 1 do
    let at = f.pos + (k * idle_entry) in
    let j = String.get_uint8 f.buf at in
    if j >= n || j = i then perr "hub: idle from shard %d counts shard %d" i j;
    h.told_sent.(i).(j) <- Int64.to_int (String.get_int64_be f.buf (at + 1));
    h.told_taken.(i).(j) <- Int64.to_int (String.get_int64_be f.buf (at + 9))
  done;
  h.answered.(i) <- h.epoch;
  h.awaiting <- h.awaiting - 1

(* While a Request of the hub's own awaits its reply the run cannot have
   terminated, so the hub probes then only after this long without a
   frame: long enough that a reply in flight does not cost a wave, short
   enough to end a run whose Request will never be answered (dropped by
   the fault injector, its handler raised, or a wait-for cycle). *)
let probe_silence = 0.010

(* Silence, summed over the hub's waits since a socket last woke it,
   that fails the run. *)
let stall_silence = 30.0

exception Leaf_closed of int

(* Hub: serve until the cluster terminates, then send every leaf
   Shutdown and serve until each has answered with its Stats.  A leaf
   that closes its socket before its Stats has died.  About to block,
   the hub starts a wave when none is open, the latest reports do not
   balance and nothing it sent awaits a reply; with a Request of its
   own outstanding it starts one after [probe_silence] instead. *)
let hub_loop t h =
  let n = Array.length t.shards in
  let sh0 = t.shards.(0) in
  let peers = Array.to_list h.hpeers in
  let may_probe () = h.awaiting = 0 && (not h.stopping) && not (balanced t h) in
  let probe () =
    h.epoch <- (h.epoch + 1) land 0xFFFF_FFFF;
    h.awaiting <- Array.length h.hpeers;
    List.iter
      (fun p ->
        Conn.send ?session:p.session p.conn
          (Frame.make ~kind:Frame.Idle ~src:0 ~dst:p.shard ~seq:h.epoch ""))
      peers;
    sh0.idles <- sh0.idles + h.awaiting
  in
  let before_block () = if Hashtbl.length sh0.pending = 0 && may_probe () then probe () in
  let wait quiet =
    let left = stall_silence -. quiet in
    if may_probe () then Float.min probe_silence left else left
  in
  let silent quiet =
    if quiet >= stall_silence then
      failwith
        (Printf.sprintf "Cluster: wire shard %d saw no traffic for %.0fs — leaf stalled?"
           sh0.index stall_silence);
    if may_probe () then probe ()
  in
  let handle p (f : Conn.view) =
    match f.hdr.kind with
    | Frame.Request | Frame.Reply -> take_data t sh0 p f
    | Frame.Idle -> take_idle h ~n p f
    | Frame.Stats when h.stopping && h.reports.(p.shard) = None ->
        h.reports.(p.shard) <- Some (parse_stats f)
    | k -> perr "hub: unexpected %s frame from shard %d" (Frame.kind_name k) p.shard
  in
  let closed p = if h.reports.(p.shard) = None then raise (Leaf_closed p.shard) in
  let serve stop = serve sh0 peers ~wait ~silent ~stop ~before_block ~handle ~closed in
  serve (fun () -> balanced t h);
  h.stopping <- true;
  List.iter
    (fun p ->
      Conn.send ?session:p.session p.conn (Frame.make ~kind:Frame.Shutdown ~src:0 ~dst:p.shard ""))
    peers;
  serve (fun () -> List.for_all (fun p -> h.reports.(p.shard) <> None) peers)

let status_text = function
  | Unix.WEXITED c -> Printf.sprintf "exited %d" c
  | Unix.WSIGNALED s -> Printf.sprintf "killed by signal %d" s
  | Unix.WSTOPPED s -> Printf.sprintf "stopped by signal %d" s

(* Fork one process per leaf shard after the topology is built: every
   closure, Eject and UID crosses by inheritance, so both sides of each
   proxy already agree on names without any wire-level bootstrap.  Every
   socket is made before the fork — one from the hub to each leaf, one
   per leaf-to-leaf link — as a connected pair whose two ends only the
   two shards it joins keep: no process listens, and a leaf that dies at
   any point is an end of file on a socket the hub already holds. *)
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
      match prev_sigpipe with
      | Some b -> ( try Sys.set_signal Sys.sigpipe b with _ -> ())
      | None -> ()
    in
    (* Each end of the socket between shards [a < b] derives its session
       itself: [mint_token] for the hub's socket to a leaf, [link_token]
       for a link, both under a nonce drawn for this run. *)
    let session =
      match cfg.wire_auth with
      | None -> fun _ _ -> None
      | Some c ->
          let nonce = Random.State.bits64 (Random.State.make_self_init ()) in
          fun a b ->
            let token =
              if a = 0 then Auth.mint_token c ~shard:b ~nonce else Auth.link_token c ~nonce a b
            in
            Some (Auth.session c ~token)
    in
    let peer shard fd session = { shard; conn = Conn.create fd; session; sent = 0; taken = 0 } in
    match
      let ends =
        List.map
          (fun (a, b) ->
            let fa, fb = Transport.pair cfg.wire_transport in
            (a, b, hold fa, hold fb))
          (List.init (n - 1) (fun k -> (0, k + 1)) @ t.links)
      in
      (* Shard [i]'s end of each of its sockets, as a peer; every other
         end goes to [drop]. *)
      let own i ~drop =
        List.concat_map
          (fun (a, b, fa, fb) ->
            if a = i then begin
              drop fb;
              [ peer b fa (session a b) ]
            end
            else if b = i then begin
              drop fa;
              [ peer a fb (session a b) ]
            end
            else begin
              drop fa;
              drop fb;
              []
            end)
          ends
      in
      for i = 1 to n - 1 do
        match Unix.fork () with
        | 0 -> (
            (* Leaf process for shard i. *)
            try
              let lpeers = Array.make n None in
              List.iter (fun p -> lpeers.(p.shard) <- Some p) (own i ~drop:Unix.close);
              let l = { lpeers; probe = -1; shutdown = false } in
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
      let h =
        {
          hpeers = Array.of_list (own 0 ~drop:(fun fd -> close_held [ fd ]));
          hfaults = cfg.wire_faults;
          answered = Array.make n (-1);
          told_sent = Array.make_matrix n n 0;
          told_taken = Array.make_matrix n n 0;
          reports = Array.make n None;
          epoch = -1;
          awaiting = 0;
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

(* The record a forked leaf reported for its shard in its Stats frame;
   [None] for a shard whose kernel runs in this process, and for a leaf
   that never reported.  A leaf kernel's copy here is a stale pre-fork
   snapshot. *)
let report t sh = match t.fabric with Hub h -> h.reports.(sh.index) | Inproc | Leaf _ -> None

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
  (* A leaf's first fiber failure came with its Stats. *)
  Array.iter
    (fun sh ->
      match report t sh with
      | None -> Sched.check_failures (Kernel.sched sh.kernel)
      | Some r ->
          Option.iter (fun m -> failwith (Printf.sprintf "Cluster: wire leaf %d: %s" sh.index m))
            r.failure)
    t.shards

(* --- Aggregated accessors -------------------------------------------- *)

let results t =
  Array.map (fun sh -> match report t sh with Some r -> r | None -> result_of sh) t.shards

let cross_messages t = Array.fold_left (fun a (r : result) -> a + r.sent) 0 (results t)

let wire_counts ?shard t =
  let rs = results t in
  match shard with
  | Some i -> rs.(i).wire
  | None ->
      Array.fold_left
        (fun a r ->
          {
            wakeups = a.wakeups + r.wire.wakeups;
            reads = a.reads + r.wire.reads;
            writes = a.writes + r.wire.writes;
            idles = a.idles + r.wire.idles;
          })
        { wakeups = 0; reads = 0; writes = 0; idles = 0 }
        rs

let meter t =
  Array.fold_left (fun acc r -> Kernel.Meter.add acc r.meter) Kernel.Meter.zero (results t)

let op_counts t =
  let tbl = Hashtbl.create 16 in
  let add (op, n) =
    Hashtbl.replace tbl op (n + Option.value ~default:0 (Hashtbl.find_opt tbl op))
  in
  Array.iter (fun r -> List.iter add r.ops) (results t);
  Hashtbl.fold (fun op n acc -> (op, n) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let flows t = List.sort compare (List.concat_map (fun r -> r.flows) (Array.to_list (results t)))

let makespans t = Array.map (fun r -> r.makespan) (results t)

let histograms t =
  let tbl = Hashtbl.create 16 in
  let fold sh =
    List.iter
      (fun (name, h) ->
        match Hashtbl.find_opt tbl name with
        | None -> Hashtbl.add tbl name h
        | Some into -> Obs.Histogram.merge ~into h)
      (Obs.histograms (Kernel.obs sh.kernel))
  in
  (match t.fabric with
  | Hub _ ->
      (* Wall-clock timing makes leaf histograms transport-dependent;
         wire mode reports the hub shard only. *)
      fold t.shards.(0)
  | Inproc | Leaf _ -> Array.iter fold t.shards);
  Hashtbl.fold (fun name h acc -> (name, h) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
