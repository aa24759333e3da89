module Sched = Eden_sched.Sched
module Ivar = Eden_sched.Ivar
module Mailbox = Eden_sched.Mailbox
module Net = Eden_net.Net
module Obs = Eden_obs.Obs

exception Eden_error of string

type reply = (Value.t, string) result

type handler = Value.t -> Value.t

type dispatch = Serial | Concurrent

(* A message in an Eject's coordinator mailbox.  [Stop] is the internal
   poison pill used by deactivate/destroy to unblock the coordinator.
   [span] is the observability span opened by the invoking side; the
   handler runs with it bound so nested invocations become children. *)
type message =
  | Invoke of { op : string; arg : Value.t; span : int option; reply_to : reply -> unit }
  | Stop

type runtime = {
  mailbox : message Mailbox.t;
  mutable worker_fids : int list;
  handlers : (string, handler) Hashtbl.t;
  mutable stopping : bool;
  (* ["<uid>/worker"], formatted at the first worker spawn of this
     activation ([""] until then): a Serial Eject never pays for it,
     and a Concurrent one pays once rather than per invocation. *)
  mutable worker_name : string;
}

type eject_state = Active of runtime | Passive | Destroyed

(* A dormant Eject is this record, its UID, one slab cell and one index
   word — roughly a hundred bytes — which is what makes a million idle
   producers affordable (experiment S1 measures the real figure).  The
   booleans and small counters share one [flags] word:

     bit 0       Concurrent dispatch
     bit 1       quiesced — deliberately idle (draining, fenced,
                 parked): fibers blocked on behalf of a quiesced Eject
                 are expected, so stall detectors skip them.  Cleared
                 by [crash] — a crashed stage is no longer deliberately
                 anything.
     bits 2-21   crash count
     bits 22-61  transport waits — fibers of this Eject currently
                 blocked on a remote shard's wire (socket round-trip in
                 flight): like quiesced, expected blocking that stall
                 detectors must not flag.  A counter, not a flag —
                 several workers can be in transit at once.  Reset by
                 [crash]. *)
type eject = {
  uid : Uid.t;
  node : Net.node_id;
  etype : string;
  mutable state : eject_state;
  mutable versions : (float * Value.t) list; (* checkpoints, newest first *)
  mutable received : int;
  mutable flags : int;
  behaviour : behaviour;
}

and t = {
  sched : Sched.t;
  net : Net.t;
  uid_gen : Uid.gen;
  ejects : eject Estore.t;
  node_ids : Net.node_id list;
  per_op : (string, op_stat) Hashtbl.t;
  mutable invocations : int;
  mutable replies : int;
  mutable activations : int;
  mutable ejects_created : int;
  mutable ejects_destroyed : int;
  mutable crashes : int;
  mutable timeouts : int;
  obs : Obs.t;
  (* Which Eject a fiber belongs to (coordinator and workers), and the
     span currently bound to a fiber (for span parentage).  Entries are
     removed by the scheduler finish hook. *)
  fiber_owner : (Sched.fiber_id, Uid.t) Hashtbl.t;
  fiber_spans : (Sched.fiber_id, int) Hashtbl.t;
  (* While a behaviour is being installed: the span of the invocation
     (or poking fiber) that triggered the activation, inherited by
     workers spawned during installation.  Activation often happens in
     a delivery thunk where no fiber is current, so the fiber-binding
     table alone cannot carry this edge of the causal tree. *)
  mutable activation_span : int option;
  (* Destination-side admission hook: consulted at dispatch, after the
     Estore lookup verified the UID and before the coordinator sees the
     invocation.  [None] (the default) admits everything. *)
  mutable guard : guard option;
}

and guard =
  dst:Uid.t -> op:string -> Value.t -> (Value.t * ((Value.t, string) result -> unit) option, string) result

(* One interned record per operation name: its invocation count and,
   bound at its first reply, its ["rtt.<op>"] histogram — so an invoke
   hashes [op] once and a reply neither builds the name nor looks it
   up. *)
and op_stat = { mutable count : int; mutable rtt : Obs.Histogram.t option }

and ctx = { k : t; self_uid : Uid.t option; src_node : Net.node_id }

and behaviour = ctx -> passive:Value.t option -> (string * handler) list

(* [flags] field accessors; see the layout at [type eject]. *)
let f_concurrent = 1
let f_quiesced = 2
let crash_shift = 2
let crash_mask = 0xFFFFF (* 20 bits *)
let tw_shift = 22

let e_dispatch e = if e.flags land f_concurrent <> 0 then Concurrent else Serial
let e_quiesced e = e.flags land f_quiesced <> 0

let e_set_quiesced e q =
  e.flags <- (if q then e.flags lor f_quiesced else e.flags land lnot f_quiesced)

let e_crash_count e = (e.flags lsr crash_shift) land crash_mask
let e_transport_waits e = e.flags lsr tw_shift
let e_tw_incr e = e.flags <- e.flags + (1 lsl tw_shift)

let e_tw_decr e =
  if e.flags lsr tw_shift > 0 then e.flags <- e.flags - (1 lsl tw_shift)

(* Crash bumps the crash count and clears quiesced plus the
   transport-wait counter, all in one mask. *)
let e_crash_reset e =
  e.flags <- (e.flags land (f_concurrent lor (crash_mask lsl crash_shift))) + (1 lsl crash_shift)

(* Fiber ids are unique, so dropping the first match is [List.filter]
   without the copy: the tail after it is shared, and a worker that
   finishes while it is still the newest entry costs no allocation. *)
let rec remove_fid fid = function
  | [] -> []
  | f :: rest when f = fid -> rest
  | f :: rest -> f :: remove_fid fid rest

(* When a fiber finishes, forget its span binding and prune it from its
   Eject's worker list: [worker_fids] otherwise only ever grows (one
   entry per Concurrent invocation), and deactivate/destroy would
   re-cancel long-dead fibers. *)
let on_fiber_finish t fid =
  Hashtbl.remove t.fiber_spans fid;
  match Hashtbl.find t.fiber_owner fid with
  | exception Not_found -> ()
  | uid -> (
      Hashtbl.remove t.fiber_owner fid;
      match Estore.find t.ejects uid with
      | Some { state = Active rt; _ } -> rt.worker_fids <- remove_fid fid rt.worker_fids
      | Some _ | None -> ())

let create ?(seed = 0xEDE0L) ?(latency = Net.Fixed 1.0) ?(nodes = [ "node-0" ]) () =
  let sched = Sched.create () in
  let prng = Eden_util.Prng.create seed in
  let net = Net.create ~seed:(Eden_util.Prng.next_int64 prng) ~sched ~latency () in
  let nodes = if nodes = [] then [ "node-0" ] else nodes in
  let node_ids = List.map (Net.add_node net) nodes in
  let obs = Obs.create () in
  Net.set_obs net obs;
  let dummy_eject =
    {
      uid = Uid.of_wire ~tag:0L ~serial:(-1);
      node = List.hd node_ids;
      etype = "";
      state = Destroyed;
      versions = [];
      received = 0;
      flags = 0;
      behaviour = (fun _ ~passive:_ -> []);
    }
  in
  let t =
    {
      sched;
      net;
      uid_gen = Uid.generator ~seed:(Eden_util.Prng.next_int64 prng);
      ejects = Estore.create ~capacity:64 ~dummy:dummy_eject ~uid_of:(fun e -> e.uid) ();
      node_ids;
      per_op = Hashtbl.create 32;
      invocations = 0;
      replies = 0;
      activations = 0;
      ejects_created = 0;
      ejects_destroyed = 0;
      crashes = 0;
      timeouts = 0;
      obs;
      fiber_owner = Hashtbl.create 64;
      fiber_spans = Hashtbl.create 64;
      activation_span = None;
      guard = None;
    }
  in
  Sched.set_finish_hook sched (on_fiber_finish t);
  t

let sched t = t.sched
let net t = t.net
let nodes t = t.node_ids
let obs t = t.obs

(* Lifecycle events double as observability instants so span exports
   show activations/crashes interleaved with the invocation tree. *)
let lifecycle t name uid =
  Obs.instant t.obs ~name ~cat:"lifecycle"
    ~attrs:[ ("uid", Uid.to_string uid) ]
    ~at:(Sched.now t.sched) ()

let run t =
  Sched.run t.sched;
  Sched.check_failures t.sched

let create_eject t ?node ?(dispatch = Serial) ~type_name behaviour =
  let node = match node with Some n -> n | None -> List.hd t.node_ids in
  let uid = Uid.fresh t.uid_gen in
  let e =
    {
      uid;
      node;
      etype = type_name;
      state = Passive;
      versions = [];
      received = 0;
      flags = (match dispatch with Concurrent -> f_concurrent | Serial -> 0);
      behaviour;
    }
  in
  Estore.add t.ejects e;
  t.ejects_created <- t.ejects_created + 1;
  uid

(* Destroyed Ejects are physically removed from the store, so a miss
   already means "gone or never existed"; the [Destroyed] state only
   flags records still referenced by their winding-down coordinator. *)
let exists t uid =
  match Estore.find t.ejects uid with
  | Some { state = Destroyed; _ } | None -> false
  | Some _ -> true

let is_active t uid =
  match Estore.find t.ejects uid with Some { state = Active _; _ } -> true | _ -> false

let live_ejects t = t.ejects_created - t.ejects_destroyed

let checkpoints t uid =
  match Estore.find t.ejects uid with Some e -> e.versions | None -> []

let crash_count t uid =
  match Estore.find t.ejects uid with Some e -> e_crash_count e | None -> 0

let received t uid =
  match Estore.find t.ejects uid with Some e -> e.received | None -> 0

let worker_count t uid =
  match Estore.find t.ejects uid with
  | Some { state = Active rt; _ } -> List.length rt.worker_fids
  | Some _ | None -> 0

let owner_of_fiber t fid = Hashtbl.find_opt t.fiber_owner fid
let set_guard t g = t.guard <- g

let set_quiesced t uid q =
  match Estore.find t.ejects uid with
  | None | Some { state = Destroyed; _ } -> ()
  | Some e -> e_set_quiesced e q

let is_quiesced t uid =
  match Estore.find t.ejects uid with
  | Some { state = Destroyed; _ } | None -> false
  | Some e -> e_quiesced e

let with_transport_wait ctx f =
  match ctx.self_uid with
  | None -> f ()
  | Some uid -> (
      match Estore.find ctx.k.ejects uid with
      | None | Some { state = Destroyed; _ } -> f ()
      | Some e -> (
          e_tw_incr e;
          match f () with
          | v ->
              e_tw_decr e;
              v
          | exception exn ->
              e_tw_decr e;
              raise exn))

let in_transport_wait t uid =
  match Estore.find t.ejects uid with
  | Some { state = Destroyed; _ } | None -> false
  | Some e -> e_transport_waits e > 0

let timeouts t = t.timeouts

(* --- Eject runtime ------------------------------------------------- *)

(* Undo [run_handler]'s span binding ([None]: nothing was bound). *)
let unbind t = function
  | None -> ()
  | Some (fid, Some prev) -> Hashtbl.replace t.fiber_spans fid prev
  | Some (fid, None) -> Hashtbl.remove t.fiber_spans fid

let run_handler t e msg =
  match msg with
  | Stop -> ()
  | Invoke { op; arg; span; reply_to } -> (
      let rt = match e.state with Active rt -> rt | Passive | Destroyed -> assert false in
      (* Bind the invocation's span to the executing fiber for the
         duration of the handler so nested invokes become children.
         With spans off there is nothing to bind, and the fiber is not
         asked for. *)
      let bound =
        match span with
        | None -> None
        | Some s -> (
            match Sched.current_fid t.sched with
            | Some fid ->
                let saved = Hashtbl.find_opt t.fiber_spans fid in
                Hashtbl.replace t.fiber_spans fid s;
                Some (fid, saved)
            | None -> None)
      in
      match Hashtbl.find rt.handlers op with
      | exception Not_found ->
          unbind t bound;
          reply_to (Error (Printf.sprintf "no such operation: %s" op))
      | h -> (
          match h arg with
          | v ->
              unbind t bound;
              reply_to (Ok v)
          | exception Eden_error m ->
              unbind t bound;
              reply_to (Error m)
          | exception Value.Protocol_error m ->
              unbind t bound;
              reply_to (Error ("protocol error: " ^ m))
          | exception Sched.Cancelled ->
              unbind t bound;
              raise Sched.Cancelled))

let worker_name e rt =
  if rt.worker_name = "" then rt.worker_name <- Uid.to_string e.uid ^ "/worker";
  rt.worker_name

let rec coordinator t e rt () =
  let msg = Mailbox.receive rt.mailbox in
  (match e.state with
  | Active _ when not rt.stopping -> (
      match msg with
      | Stop -> ()
      | Invoke _ as m -> (
          (* Only genuine invocations count as received: the [Stop]
             poison pill is kernel bookkeeping, not traffic. *)
          e.received <- e.received + 1;
          match e_dispatch e with
          | Serial -> run_handler t e m
          | Concurrent ->
              let fid =
                Sched.spawn t.sched ~name:(worker_name e rt) (fun () -> run_handler t e m)
              in
              Hashtbl.replace t.fiber_owner fid e.uid;
              rt.worker_fids <- fid :: rt.worker_fids))
  | Active _ | Passive | Destroyed -> ());
  match e.state with
  | Active rt' when rt' == rt && not rt.stopping -> coordinator t e rt ()
  | Active _ | Passive | Destroyed -> ()

and activate ?span t e =
  match e.state with
  | Active rt -> rt
  | Destroyed -> invalid_arg "Kernel.activate: destroyed eject"
  | Passive ->
      let rt =
        {
          mailbox = Mailbox.create ~label:(e.etype ^ " coordinator") ();
          worker_fids = [];
          handlers = Hashtbl.create 8;
          stopping = false;
          worker_name = "";
        }
      in
      e.state <- Active rt;
      t.activations <- t.activations + 1;
      lifecycle t "activate" e.uid;
      let ctx = { k = t; self_uid = Some e.uid; src_node = e.node } in
      let passive = match e.versions with (_, data) :: _ -> Some data | [] -> None in
      (* The activation's causal parent: the invocation that woke the
         Eject, or — for [poke] — whatever span the poking fiber is
         bound to.  Workers spawned by the behaviour inherit it. *)
      let span =
        match span with
        | Some _ as s -> s
        | None -> (
            match Sched.current_fid t.sched with
            | Some fid -> Hashtbl.find_opt t.fiber_spans fid
            | None -> None)
      in
      let saved = t.activation_span in
      t.activation_span <- span;
      let table =
        Fun.protect
          ~finally:(fun () -> t.activation_span <- saved)
          (fun () -> e.behaviour ctx ~passive)
      in
      List.iter (fun (op, h) -> Hashtbl.replace rt.handlers op h) table;
      let fid =
        Sched.spawn t.sched
          ~name:(Printf.sprintf "%s(%s)/coord" e.etype (Uid.to_string e.uid))
          (coordinator t e rt)
      in
      Hashtbl.replace t.fiber_owner fid e.uid;
      rt.worker_fids <- fid :: rt.worker_fids;
      rt

(* --- Invocation ---------------------------------------------------- *)

let op_stat t op =
  match Hashtbl.find t.per_op op with
  | st -> st
  | exception Not_found ->
      let st = { count = 0; rtt = None } in
      Hashtbl.add t.per_op op st;
      st

let rtt_histogram t op st =
  match st.rtt with
  | Some h -> h
  | None ->
      let h = Obs.histogram t.obs ("rtt." ^ op) in
      st.rtt <- Some h;
      h

(* The kernel detects a dangling UID at the source; model the check as
   a local hop so even errors cost simulated time. *)
let fail_local t ~src_node settle msg =
  Net.send t.net ~src:src_node ~dst:src_node ~size:16 (fun () -> settle (Error msg))

let dispatch ?span t e ~op arg reply_to =
  let rt = activate ?span t e in
  Mailbox.send rt.mailbox (Invoke { op; arg; span; reply_to })

let invoke_from t ~src_node dst ~op arg =
  t.invocations <- t.invocations + 1;
  let st = op_stat t op in
  st.count <- st.count + 1;
  let t0 = Sched.now t.sched in
  let span =
    if Obs.spans_enabled t.obs then
      let parent =
        match Sched.current_fid t.sched with
        | Some fid -> Hashtbl.find_opt t.fiber_spans fid
        | None -> None
      in
      Some
        (Obs.span_begin t.obs ?parent ~name:op ~cat:"invoke"
           ~attrs:[ ("dst", Uid.to_string dst) ]
           ~at:t0 ())
    else None
  in
  let ivar = Ivar.create () in
  (* Every resolution path funnels through [settle]: it fills the reply
     slot, feeds the round-trip histogram, and closes the span.  A
     reply that arrives after an [invoke_timeout] sealed the slot still
     closes the span (marked not-ok); an invocation whose reply was
     dropped by the network leaves its span open — visible in exports
     as an incomplete invocation. *)
  let settle r =
    let first = Ivar.try_fill ivar r in
    let now = Sched.now t.sched in
    if first then Obs.Histogram.add (rtt_histogram t op st) (now -. t0);
    match span with
    | Some id -> Obs.span_end t.obs id ~at:now ~ok:(first && Result.is_ok r)
    | None -> ()
  in
  (match Estore.find t.ejects dst with
  | None | Some { state = Destroyed; _ } -> fail_local t ~src_node settle "no such eject"
  | Some e ->
      let size = Value.size arg + String.length op + 16 in
      Net.send t.net ~src:src_node ~dst:e.node ~size (fun () ->
          match e.state with
          | Destroyed -> settle (Error "no such eject")
          | Passive | Active _ -> (
              let reply_to r =
                t.replies <- t.replies + 1;
                let rsize =
                  match r with Ok v -> Value.size v + 16 | Error m -> String.length m + 16
                in
                Net.send t.net ~src:e.node ~dst:src_node ~size:rsize (fun () -> settle r)
              in
              match t.guard with
              | None -> dispatch ?span t e ~op arg reply_to
              | Some g -> (
                  match g ~dst ~op arg with
                  | Error msg ->
                      (* Refused at the door: replied without activating —
                         an attack must not wake a dormant victim. *)
                      reply_to (Error msg)
                  | Ok (arg, None) -> dispatch ?span t e ~op arg reply_to
                  | Ok (arg, Some f) ->
                      dispatch ?span t e ~op arg (fun r ->
                          f r;
                          reply_to r)))));
  ivar

let invoke_async ctx dst ~op arg = invoke_from ctx.k ~src_node:ctx.src_node dst ~op arg

let invoke ctx dst ~op arg = Ivar.read (invoke_async ctx dst ~op arg)

let invoke_timeout ctx dst ~op arg ~timeout =
  let ivar = invoke_async ctx dst ~op arg in
  match Ivar.read_timeout ctx.k.sched ivar timeout with
  | Some _ as reply -> reply
  | None ->
      (* Seal the abandoned reply slot: a reply arriving after the
         timeout finds the ivar filled and is discarded, and filling it
         empties its waiter queue so repeated retries do not accumulate
         orphan wakers. *)
      ignore (Ivar.try_fill ivar (Error "timed out"));
      ctx.k.timeouts <- ctx.k.timeouts + 1;
      None

let call ctx dst ~op arg =
  match invoke ctx dst ~op arg with Ok v -> v | Error m -> raise (Eden_error m)

(* A user-level span bound to the current fiber: invocations issued by
   [f] become its children.  Used by drivers to root the invocation
   tree of one pipeline run. *)
let with_span ctx ~name f =
  let t = ctx.k in
  if not (Obs.spans_enabled t.obs) then f ()
  else
    match Sched.current_fid t.sched with
    | None -> f ()
    | Some fid -> (
        let parent = Hashtbl.find_opt t.fiber_spans fid in
        let id = Obs.span_begin t.obs ?parent ~name ~cat:"user" ~at:(Sched.now t.sched) () in
        Hashtbl.replace t.fiber_spans fid id;
        let restore () =
          match parent with
          | Some p -> Hashtbl.replace t.fiber_spans fid p
          | None -> Hashtbl.remove t.fiber_spans fid
        in
        match f () with
        | v ->
            restore ();
            Obs.span_end t.obs id ~at:(Sched.now t.sched) ~ok:true;
            v
        | exception exn ->
            restore ();
            Obs.span_end t.obs id ~at:(Sched.now t.sched) ~ok:false;
            raise exn)

(* --- Self-operations ----------------------------------------------- *)

let self ctx =
  match ctx.self_uid with
  | Some uid -> uid
  | None -> invalid_arg "Kernel.self: driver context has no self"

let kernel ctx = ctx.k

let my_eject ctx =
  match ctx.self_uid with
  | None -> invalid_arg "Kernel: operation requires an Eject context"
  | Some uid -> (
      match Estore.find ctx.k.ejects uid with
      | Some e -> e
      | None -> invalid_arg "Kernel: unknown self")

let spawn_worker ctx ?name body =
  let e = my_eject ctx in
  match e.state with
  | Active rt ->
      let name = match name with Some n -> n | None -> worker_name e rt in
      let fid = Sched.spawn ctx.k.sched ~name body in
      Hashtbl.replace ctx.k.fiber_owner fid e.uid;
      (* Inherit the spawner's span: the current fiber's binding, or the
         activation parent when spawned during behaviour installation
         (which usually runs in a delivery thunk, outside any fiber). *)
      (match
         match Sched.current_fid ctx.k.sched with
         | Some f -> Hashtbl.find_opt ctx.k.fiber_spans f
         | None -> ctx.k.activation_span
       with
      | Some s -> Hashtbl.replace ctx.k.fiber_spans fid s
      | None -> ());
      rt.worker_fids <- fid :: rt.worker_fids
  | Passive | Destroyed -> invalid_arg "Kernel.spawn_worker: eject not active"

let checkpoint ctx data =
  let e = my_eject ctx in
  e.versions <- (Sched.now ctx.k.sched, data) :: e.versions;
  lifecycle ctx.k "checkpoint" e.uid

let mint ctx = Uid.fresh ctx.k.uid_gen

(* Stop an active eject's processes.  [self_fid] protection is not
   needed: cancellation is only delivered at suspension points, and the
   coordinator checks [stopping] before its next receive. *)
let stop_runtime t e ~drop_mailbox =
  match e.state with
  | Active rt ->
      rt.stopping <- true;
      Mailbox.send rt.mailbox Stop;
      List.iter (fun fid -> Sched.cancel t.sched fid) rt.worker_fids;
      if drop_mailbox then
        (* Crash: pending messages are lost; their invokers never get a
           reply (they can use invoke_timeout). *)
        while Mailbox.try_receive rt.mailbox <> None do
          ()
        done;
      e.state <- Passive
  | Passive | Destroyed -> ()

(* Deactivation is for idle Ejects: invocations still queued behind the
   current one stay in the old runtime's mailbox, which nothing reads
   again, so they are dropped unanswered (their invokers can protect
   themselves with timeouts).  The next invocation activates a fresh
   runtime. *)
let deactivate ctx = stop_runtime ctx.k (my_eject ctx) ~drop_mailbox:false

let destroy ctx =
  let e = my_eject ctx in
  stop_runtime ctx.k e ~drop_mailbox:false;
  if e.state <> Destroyed then begin
    e.state <- Destroyed;
    (* Physically release the slot: the slab recycles it and the UID
       index forgets the serial.  The coordinator still holds [e] in
       its closure and sees [Destroyed] on its way out; stale UIDs miss
       the store rather than finding a ghost record. *)
    ignore (Estore.remove ctx.k.ejects e.uid);
    ctx.k.ejects_destroyed <- ctx.k.ejects_destroyed + 1;
    lifecycle ctx.k "destroy" e.uid
  end

let poke t uid =
  match Estore.find t.ejects uid with
  | None | Some { state = Destroyed; _ } -> invalid_arg "Kernel.poke: no such eject"
  | Some e -> ignore (activate t e)

let crash t uid =
  match Estore.find t.ejects uid with
  | None | Some { state = Destroyed; _ } -> ()
  | Some e ->
      t.crashes <- t.crashes + 1;
      e_crash_reset e;
      Sched.note t.sched ~kind:"kernel.crash" ~arg:(Uid.hash e.uid);
      lifecycle t "crash" e.uid;
      stop_runtime t e ~drop_mailbox:true

(* --- Drivers -------------------------------------------------------- *)

let spawn_driver t ?(name = "driver") f =
  let ctx = { k = t; self_uid = None; src_node = List.hd t.node_ids } in
  ignore (Sched.spawn t.sched ~name (fun () -> f ctx))

let run_driver t f =
  spawn_driver t f;
  run t

(* --- Metering ------------------------------------------------------- *)

module Meter = struct
  type snapshot = {
    invocations : int;
    replies : int;
    activations : int;
    ejects_created : int;
    ejects_live : int;
    crashes : int;
    timeouts : int;
    net : Net.meter;
  }

  let snapshot (k : t) =
    {
      invocations = k.invocations;
      replies = k.replies;
      activations = k.activations;
      ejects_created = k.ejects_created;
      ejects_live = live_ejects k;
      crashes = k.crashes;
      timeouts = k.timeouts;
      net = Net.meter k.net;
    }

  let diff later earlier =
    {
      invocations = later.invocations - earlier.invocations;
      replies = later.replies - earlier.replies;
      activations = later.activations - earlier.activations;
      ejects_created = later.ejects_created - earlier.ejects_created;
      ejects_live = later.ejects_live;
      crashes = later.crashes - earlier.crashes;
      timeouts = later.timeouts - earlier.timeouts;
      net = Net.meter_diff later.net earlier.net;
    }

  let zero =
    {
      invocations = 0;
      replies = 0;
      activations = 0;
      ejects_created = 0;
      ejects_live = 0;
      crashes = 0;
      timeouts = 0;
      net = Net.empty_meter;
    }

  (* Counter-wise sum over disjoint kernels (the parallel runtime's
     per-domain shards); [ejects_live] sums too since the kernels share
     no Ejects. *)
  let add a b =
    {
      invocations = a.invocations + b.invocations;
      replies = a.replies + b.replies;
      activations = a.activations + b.activations;
      ejects_created = a.ejects_created + b.ejects_created;
      ejects_live = a.ejects_live + b.ejects_live;
      crashes = a.crashes + b.crashes;
      timeouts = a.timeouts + b.timeouts;
      net = Net.meter_add a.net b.net;
    }

  let pp ppf s =
    Format.fprintf ppf
      "invocations=%d replies=%d activations=%d ejects=%d live=%d crashes=%d timeouts=%d %a"
      s.invocations s.replies s.activations s.ejects_created s.ejects_live s.crashes s.timeouts
      Net.pp_meter s.net
end

let op_counts t =
  Hashtbl.fold (fun op st acc -> (op, st.count) :: acc) t.per_op []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
