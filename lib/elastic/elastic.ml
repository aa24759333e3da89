module Value = Eden_kernel.Value
module Kernel = Eden_kernel.Kernel
module Uid = Eden_kernel.Uid
module Sched = Eden_sched.Sched
module Ivar = Eden_sched.Ivar
module Semaphore = Eden_sched.Semaphore
module Prng = Eden_util.Prng
module Channel = Eden_transput.Channel
module Proto = Eden_transput.Proto
module Aimd = Eden_flowctl.Aimd
module Obs = Eden_obs.Obs
module Push = Eden_transput.Push
module Intake = Eden_transput.Intake
module Window = Eden_transput.Window
module Retry = Eden_resil.Retry
module Supervisor = Eden_resil.Supervisor

type spec = { init : Value.t; step : Value.t -> Value.t -> Value.t * Value.t list }
type defect = Drain_skips_checkpoint

type params = {
  tick : float;
  checkpoint_every : int;
  capacity_per_replica : int;
  auto : bool;
  ctrl : Aimd.params;
}

let default_ctrl =
  Aimd.params ~min_batch:0 ~max_batch:8 ~increase:1 ~decrease:0.5 ~low_watermark:0.25
    ~high_watermark:0.75 ()

let params ?(tick = 5.0) ?(checkpoint_every = 4) ?(capacity_per_replica = 8) ?(auto = true)
    ?(ctrl = default_ctrl) () =
  if tick <= 0.0 then invalid_arg "Elastic.params: tick must be positive";
  if checkpoint_every < 1 then
    invalid_arg "Elastic.params: checkpoint_every must be at least 1";
  if capacity_per_replica < 1 then
    invalid_arg "Elastic.params: capacity_per_replica must be at least 1";
  { tick; checkpoint_every; capacity_per_replica; auto; ctrl }

(* Per-channel processing state while the channel is owned by no
   replica: the authoritative state plus the stamped items awaiting a
   home, [(cseq, payload)] pairs in stamping order: [front] oldest
   first, then [back] newest first.  Fresh items join [back] and
   rerouted ones [front], each by one cons, so a long park or a
   scale-to-zero costs O(1) per item.  [p_cseq + backlog_length]
   always equals the channel's stamp counter. *)
type parked = {
  mutable p_cseq : int;
  mutable p_oseq : int;
  mutable p_state : Value.t;
  mutable front : (int * Value.t) list;
  mutable back : (int * Value.t) list;
  mutable p_sealed : bool;
      (* Owner is mid-drain: the authoritative state is still in flight,
         so accumulate but do not re-home until the handoff lands. *)
}

(* One replica and the router's outbound link to it.  The link's window
   holds positions [base, next): [base, sent) have been transmitted, and
   only positions below [base] are durably checkpointed at the replica —
   everything at or above [base] is the in-flight window the router must
   retain for replay and handoff. *)
type rep = {
  r_uid : Uid.t;
  r_label : string;
  pend : Eproto.entry Window.t;
  mutable sent : int;
  mutable chans : int list; (* sorted *)
  mutable draining : bool;
  mutable last_crashes : int;
  mutable r_batches : int;
  mutable last_next : int; (* [next] at the previous manager tick *)
  s_lock : Semaphore.t; (* at most one in-flight send on this link *)
  r_flow : Obs.Flow.stage;
}

type ctrl = {
  kernel : Kernel.t;
  p : params;
  spec : spec;
  classify : Value.t -> int;
  defect : defect option;
  lock : Semaphore.t;
  prng : Prng.t; (* retry jitter for router→replica traffic *)
  aimd : Aimd.t;
  mutable sup : Supervisor.t option;
  mutable reps : rep list; (* spawn order *)
  mutable spawned : int;
  mutable max_live : int;
  assign : (int, rep) Hashtbl.t;
  parked_tbl : (int, parked) Hashtbl.t;
  stamp : (int, int ref) Hashtbl.t; (* chan → next cseq to assign *)
  mutable in_seq : int; (* upstream link dedup position *)
  mutable eos : bool;
  mutable finished : bool;
  mutable stopped : bool;
  mutable adopt_q : Uid.t list;
  mutable violations : string list;
  mutable replica_seconds : float;
  mutable last_tick : float;
  router_flow : Obs.Flow.stage;
  (* sink side *)
  sink_links : (Uid.t, int ref) Hashtbl.t;
  turnstile : (int, int ref) Hashtbl.t;
  out_tbl : (int, Value.t list ref) Hashtbl.t; (* newest first *)
  on_output : (int -> Value.t -> unit) option;
  done_ : unit Ivar.t;
  mutable router_uid : Uid.t option;
  mutable sink_uid : Uid.t option;
}

type t = ctrl

let now ctrl = Sched.now (Kernel.sched ctrl.kernel)

let instant ctrl name attrs =
  Obs.instant (Kernel.obs ctrl.kernel) ~name ~cat:"elastic" ~attrs ~at:(now ctrl) ()

let note ctrl ~kind ~arg = Sched.note (Kernel.sched ctrl.kernel) ~kind ~arg

(* Violations are recorded, not raised: a broken reconfiguration must
   not wedge the run (the checker asserts on the collected list after
   quiescence, and a raise inside a deposit handler would only stall the
   producer behind a guard). *)
let violate ctrl fmt =
  Printf.ksprintf
    (fun msg ->
      ctrl.violations <- msg :: ctrl.violations;
      instant ctrl "elastic.violation" [ ("msg", msg) ])
    fmt


let tbl_ref tbl key = match Hashtbl.find_opt tbl key with
  | Some r -> r
  | None ->
      let r = ref 0 in
      Hashtbl.add tbl key r;
      r

let backlog_length pk = List.length pk.front + List.length pk.back

let live_reps ctrl = List.filter (fun r -> not r.draining) ctrl.reps
let live_count ctrl = List.length (live_reps ctrl)

let load ctrl =
  List.fold_left (fun acc r -> acc + Window.length r.pend) 0 ctrl.reps
  + Hashtbl.fold (fun _ pk acc -> acc + backlog_length pk) ctrl.parked_tbl 0

let parked_sorted ctrl =
  Hashtbl.fold (fun c pk acc -> (c, pk) :: acc) ctrl.parked_tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* --- Replica behaviour ---------------------------------------------- *)

(* Per-channel state owned by a replica: next expected input position,
   next output position, and the transform state. *)
type cst = { mutable cseq : int; mutable oseq : int; mutable st : Value.t }

let sink_of ctrl =
  match ctrl.sink_uid with Some u -> u | None -> failwith "Elastic: sink not created"

let replica_behaviour ctrl label flow seed ctx ~passive =
  let in0, out0, states =
    match passive with Some v -> Eproto.decode_ckpt v | None -> (0, 0, [])
  in
  let chans : (int, cst) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (chan, cseq, oseq, st) -> Hashtbl.replace chans chan { cseq; oseq; st })
    states;
  let in_seq = ref in0 in
  let durable = ref in0 in
  let since = ref 0 in
  let lock = Semaphore.create 1 in
  let push =
    Push.connect ctx ~batch:ctrl.p.checkpoint_every
      ~channel:(Channel.Cap (Kernel.self ctx))
      ~retry:(Retry.client seed) ~from:out0 (sink_of ctrl)
  in
  let encode_states () =
    Hashtbl.fold (fun chan c acc -> (chan, c) :: acc) chans []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
    |> List.map (fun (chan, c) ->
           Eproto.encode_chan_state ~chan ~cseq:c.cseq ~oseq:c.oseq c.st)
  in
  (* Outputs must be durable at the sink before the state that already
     reflects them is checkpointed — once [durable] advances, the router
     releases the corresponding window and nothing can regenerate
     them. *)
  let ckpt () =
    Push.flush push;
    Kernel.checkpoint ctx
      (Eproto.encode_ckpt ~in_seq:!in_seq ~out_pos:(Push.pos push) (encode_states ()));
    durable := !in_seq;
    since := 0
  in
  let process = function
    | Eproto.Install { chan; cseq; oseq; state } ->
            Hashtbl.replace chans chan { cseq; oseq; st = state }
    | Eproto.Item { chan; cseq; payload } ->
        Obs.Flow.note_in flow;
        let c =
          match Hashtbl.find_opt chans chan with
          | Some c -> c
          | None ->
              violate ctrl "%s: item for uninstalled channel %d" label chan;
              let c = { cseq; oseq = 0; st = ctrl.spec.init } in
              Hashtbl.replace chans chan c;
              c
        in
        if cseq <> c.cseq then
          violate ctrl "%s: channel %d input %d, expected %d" label chan cseq c.cseq;
        c.cseq <- cseq + 1;
        let st', outs = ctrl.spec.step c.st payload in
        c.st <- st';
        List.iter
          (fun o ->
            Push.write push (Eproto.encode_out ~chan ~oseq:c.oseq o);
            c.oseq <- c.oseq + 1;
            Obs.Flow.note_out flow)
          outs
  in
  let deposit arg =
    let _chan, _eos, items, seq = Proto.parse_deposit_request_seq arg in
    Semaphore.acquire lock;
    Fun.protect
      ~finally:(fun () -> Semaphore.release lock)
      (fun () ->
        match Intake.admit ~expected:!in_seq ~seq:(Option.value seq ~default:!in_seq) items with
        | None ->
            (* The sender is ahead: this incarnation restarted from a
               checkpoint below an already-transmitted window (a crash the
               router has not yet detected, possibly the very
               retransmission that reactivated us).  Reject without
               processing — the durable acknowledgement tells the router
               where to rewind to. *)
            Proto.deposit_ack ~next_seq:!durable
        | Some fresh ->
            List.iter
              (fun v ->
                process (Eproto.decode_entry v);
                incr in_seq;
                incr since;
                if !since >= ctrl.p.checkpoint_every then ckpt ())
              fresh;
            (* Push outputs through at every batch boundary: only the
               converse order (outputs durable before the checkpoint that
               reflects them) is mandatory, and an early flush is always
               safe — the sink turnstile absorbs any replay.  Holding
               them to the K-amortized checkpoint cadence would add up to
               K items of latency at the sink for zero extra safety. *)
            if fresh <> [] then Push.flush push;
            (* K-amortized durability: acknowledge only through the last
               checkpoint, so the router retains the in-flight window. *)
            Proto.deposit_ack ~next_seq:!durable)
  in
  let sync _ =
    Semaphore.acquire lock;
    Fun.protect
      ~finally:(fun () -> Semaphore.release lock)
      (fun () ->
        match ctrl.defect with
        | Some Drain_skips_checkpoint ->
            (* Calibration mutant: claim the in-memory position is
               durable without checkpointing.  Benign exactly when the
               drain happens to land on a checkpoint boundary. *)
            Push.flush push;
            Value.Int !in_seq
        | None ->
            ckpt ();
            Value.Int !durable)
  in
  [ (Proto.deposit_op, deposit); (Eproto.sync_op, sync); ("Ping", fun _ -> Value.Unit) ]

(* --- Sink behaviour -------------------------------------------------- *)

let sink_behaviour ctrl _ctx ~passive:_ =
  let deposit arg =
    let chan, _eos, items, seq = Proto.parse_deposit_request_seq arg in
    let link =
      match chan with
      | Channel.Cap u -> u
      | Channel.Num _ ->
          raise (Kernel.Eden_error "elastic sink: replica links are capability channels")
    in
    let in_seq = tbl_ref ctrl.sink_links link in
    let seq = Option.value seq ~default:!in_seq in
    let fresh =
      match Intake.admit ~expected:!in_seq ~seq items with
      | Some fresh -> fresh
      | None ->
          violate ctrl "sink: link gap from %s at %d, expected %d" (Uid.to_string link) seq
            !in_seq;
          in_seq := seq;
          items
    in
    List.iter
      (fun v ->
        let chan, oseq, payload = Eproto.decode_out v in
        let t = tbl_ref ctrl.turnstile chan in
        if oseq >= !t then begin
          (* Below the turnstile is a replayed duplicate — suppressed.
             Above it is a hole: an output window was lost across a
             reconfiguration. *)
          if oseq > !t then
            violate ctrl "sink: channel %d output gap at %d, expected %d" chan oseq !t;
          t := oseq + 1;
          let outs =
            match Hashtbl.find_opt ctrl.out_tbl chan with
            | Some r -> r
            | None ->
                let r = ref [] in
                Hashtbl.add ctrl.out_tbl chan r;
                r
          in
          outs := payload :: !outs;
          match ctrl.on_output with Some f -> f chan payload | None -> ()
        end;
        incr in_seq)
      fresh;
    Proto.deposit_ack ~next_seq:!in_seq
  in
  let finish _ =
    ctrl.finished <- true;
    if not (Ivar.is_filled ctrl.done_) then Ivar.fill ctrl.done_ ();
    Value.Unit
  in
  [ (Proto.deposit_op, deposit); (Eproto.finish_op, finish); ("Ping", fun _ -> Value.Unit) ]

(* --- Router: routing, links, scaling, drain and adoption ------------- *)

let base rep = Window.base rep.pend
let next rep = Window.next rep.pend

let spawn_replica ctrl =
  let n = ctrl.spawned in
  ctrl.spawned <- n + 1;
  let label = Printf.sprintf "replica-%d" n in
  let flow = Obs.register_stage (Kernel.obs ctrl.kernel) label in
  let nodes = Kernel.nodes ctrl.kernel in
  let node = List.nth nodes (n mod List.length nodes) in
  let seed = Int64.of_int (0xE1A000 + n) in
  let r_uid =
    Kernel.create_eject ctrl.kernel ~node ~dispatch:Kernel.Concurrent ~type_name:label
      (replica_behaviour ctrl label flow seed)
  in
  let rep =
    {
      r_uid;
      r_label = label;
      pend = Window.create ();
      sent = 0;
      chans = [];
      draining = false;
      last_crashes = 0;
      r_batches = 0;
      last_next = 0;
      s_lock = Semaphore.create 1;
      r_flow = flow;
    }
  in
  ctrl.reps <- ctrl.reps @ [ rep ];
  ctrl.max_live <- max ctrl.max_live (live_count ctrl);
  (match ctrl.sup with Some s -> Supervisor.watch s ~label r_uid | None -> ());
  instant ctrl "elastic.spawn" [ ("replica", label) ];
  rep

let retry_policy = Retry.policy ~timeout:20.0 ~max_attempts:8 ()

(* Transmit positions [sent, next), looping while new entries arrive;
   short (durable) acknowledgements are expected and do NOT trigger
   retransmission — the window stays buffered here until the replica
   checkpoints past it.  Runs with [rep.s_lock] held and the router
   lock NOT held: the round trip blocks only this link, so the fleet's
   links proceed in parallel.  Lock order is s_lock ≺ router lock;
   nothing may take s_lock while holding the router lock. *)
let send_loop ctx ctrl rep =
  let rec go () =
    Semaphore.acquire ctrl.lock;
    (* A rewind (crash sweep, replay storm) sets [sent := base] without
       the link lock, so an in-flight acknowledgement can advance [base]
       past the rewound [sent] before this sender snapshots.  Entries
       below [base] are durable and gone from [pend]; transmitting the
       window labelled with a stale [sent] would mislabel every entry's
       position and corrupt the replica's dedup offset.  Clamp. *)
    if rep.sent < base rep then rep.sent <- base rep;
    let entries = Window.sub rep.pend rep.sent (next rep - rep.sent) in
    let seq = rep.sent in
    rep.sent <- next rep;
    Semaphore.release ctrl.lock;
    if entries <> [] then begin
      rep.r_batches <- rep.r_batches + 1;
      Obs.Flow.note_batches rep.r_flow rep.r_batches;
      match
        Retry.invoke ~policy:retry_policy ~prng:ctrl.prng ctx rep.r_uid
          ~op:Proto.deposit_op
          (Proto.deposit_request ~seq Channel.output ~eos:false
             (List.map Eproto.encode_entry entries))
      with
      | Some (Ok reply) -> (
          match Proto.parse_deposit_ack reply with
          | Some a ->
              Semaphore.acquire ctrl.lock;
              Window.trim rep.pend a;
              let more = rep.sent < next rep in
              Semaphore.release ctrl.lock;
              if more then go ()
          | None -> ())
      | Some (Error e) -> violate ctrl "%s: deposit refused: %s" rep.r_label e
      | None ->
          (* Dark replica: leave the window pending; crash detection will
             rewind [sent] and retransmit next tick. *)
          ()
    end
  in
  go ()

(* Nudge the link's sender.  If one is already in flight it picks up
   the new window itself after its ack; the re-check on release closes
   the race with a sender that was just finishing. *)
let rec forward ctx ctrl rep =
  if Semaphore.try_acquire rep.s_lock then begin
    Fun.protect
      ~finally:(fun () -> Semaphore.release rep.s_lock)
      (fun () -> send_loop ctx ctrl rep);
    if rep.sent < next rep then forward ctx ctrl rep
  end

(* Manager-side nudge: forward in a fresh fiber.  A full-window deposit
   blocks its caller for the window's whole service time, and the
   manager must keep ticking (crash sweeps, the scaler) while links
   drain — it must never carry a send itself. *)
let forward_async ctrl rep =
  Kernel.spawn_driver ctrl.kernel ~name:(rep.r_label ^ "/fwd") (fun ctx ->
      forward ctx ctrl rep)

let install_to ctrl rep chan pk =
  Window.push rep.pend
    (Eproto.Install { chan; cseq = pk.p_cseq; oseq = pk.p_oseq; state = pk.p_state });
  let push (cseq, payload) = Window.push rep.pend (Eproto.Item { chan; cseq; payload }) in
  List.iter push pk.front;
  List.iter push (List.rev pk.back);
  rep.chans <- List.sort_uniq compare (chan :: rep.chans);
  Hashtbl.replace ctrl.assign chan rep;
  Hashtbl.remove ctrl.parked_tbl chan;
  note ctrl ~kind:"elastic.assign" ~arg:chan;
  instant ctrl "elastic.assign"
    [ ("chan", string_of_int chan); ("replica", rep.r_label) ]

let least_loaded reps =
  match reps with
  | [] -> None
  | r0 :: rest ->
      Some
        (List.fold_left
           (fun best r ->
             if List.length r.chans < List.length best.chans then r else best)
           r0 rest)

let parked_entry ctrl chan =
  match Hashtbl.find_opt ctrl.parked_tbl chan with
  | Some pk -> pk
  | None ->
      let pk =
        {
          p_cseq = 0;
          p_oseq = 0;
          p_state = ctrl.spec.init;
          front = [];
          back = [];
          p_sealed = false;
        }
      in
      Hashtbl.add ctrl.parked_tbl chan pk;
      pk

(* Route one fresh upstream item (router lock held). *)
let route ctrl v =
  let chan = ctrl.classify v in
  let stamp = tbl_ref ctrl.stamp chan in
  let cseq = !stamp in
  incr stamp;
  Obs.Flow.note_in ctrl.router_flow;
  match Hashtbl.find_opt ctrl.assign chan with
  | Some rep -> Window.push rep.pend (Eproto.Item { chan; cseq; payload = v })
  | None -> (
      let pk = parked_entry ctrl chan in
      pk.back <- (cseq, v) :: pk.back;
      if not pk.p_sealed then
        match least_loaded (live_reps ctrl) with
        | Some rep -> install_to ctrl rep chan pk
        | None -> (* scale-to-zero: hold the work until the scaler reacts *) ())

(* Router lock held. *)
let assign_parked ctrl =
  List.iter
    (fun (chan, pk) ->
      if (pk.front <> [] || pk.back <> []) && not pk.p_sealed then
        match least_loaded (live_reps ctrl) with
        | Some rep -> install_to ctrl rep chan pk
        | None -> ())
    (parked_sorted ctrl)

(* Router lock held. *)
let flush_targets ctrl = List.filter (fun r -> r.sent < next r) ctrl.reps

(* No locks held. *)
let assign_backlogged _ctx ctrl =
  Semaphore.acquire ctrl.lock;
  assign_parked ctrl;
  let targets = flush_targets ctrl in
  Semaphore.release ctrl.lock;
  List.iter (forward_async ctrl) targets

let read_ckpt_states ctrl uid =
  match Kernel.checkpoints ctrl.kernel uid with
  | (_, v) :: _ -> Eproto.decode_ckpt v
  | [] -> (0, 0, [])

(* Put a retiring replica's in-flight window back under router
   ownership (router lock held; the replica is fenced).  Installs carry
   states newer than any checkpoint (the install itself never became
   durable there); items rejoin their channel's backlog IN FRONT of
   whatever parked behind the fence — pend stamps predate post-fence
   stamps.  Walking the window newest first and prepending keeps each
   channel's stamping order; a channel is installed at most once per
   link, so the walk's direction does not matter for Installs. *)
let reroute_pend ctrl rep =
  List.iter
    (function
      | Eproto.Install { chan; cseq; oseq; state } ->
          let pk = parked_entry ctrl chan in
          pk.p_cseq <- cseq;
          pk.p_oseq <- oseq;
          pk.p_state <- state
      | Eproto.Item { chan; cseq; payload } ->
          let pk = parked_entry ctrl chan in
          pk.front <- (cseq, payload) :: pk.front)
    (List.rev (Window.to_list rep.pend));
  Window.reset rep.pend ~base:(base rep) [];
  rep.sent <- base rep

let retire ctrl rep =
  ctrl.reps <- List.filter (fun r -> r != rep) ctrl.reps;
  (match ctrl.sup with Some s -> Supervisor.unwatch s rep.r_uid | None -> ());
  note ctrl ~kind:"elastic.scale" ~arg:(live_count ctrl)

(* After the fence no new work reaches the replica: its channels route
   to (sealed) parked slots, and sealing keeps the lazy installer from
   re-homing them before the handoff publishes the authoritative
   state.  Router lock held. *)
let fence ctrl rep =
  rep.draining <- true;
  Kernel.set_quiesced ctrl.kernel rep.r_uid true;
  List.iter
    (fun chan ->
      Hashtbl.remove ctrl.assign chan;
      (parked_entry ctrl chan).p_sealed <- true)
    rep.chans;
  note ctrl ~kind:"elastic.scale" ~arg:(live_count ctrl)

(* Handoff common to voluntary drain and involuntary adoption (router
   lock held; the replica is fenced): each owned channel's parked slot
   gets the durably checkpointed state — preserving backlog that
   accumulated behind the fence — then the window above the checkpoint
   is rerouted in front of that backlog, and the channels unseal. *)
let handoff ctrl rep =
  let ck_in, _, states = read_ckpt_states ctrl rep.r_uid in
  List.iter
    (fun (chan, cseq, oseq, st) ->
      if List.mem chan rep.chans then begin
        let pk = parked_entry ctrl chan in
        pk.p_cseq <- cseq;
        pk.p_oseq <- oseq;
        pk.p_state <- st
      end)
    states;
  (* The router's base trails the replica's durability by up to one
     K-amortized ack (acks only travel on deposit replies).  Entries in
     [base, ck_in) are already folded into the checkpointed state being
     handed over; replaying them to a successor would apply them twice.
     The voluntary path never hits this — its Sync barrier trims base to
     the full durable position first — but adoption has no Sync, so trim
     against the checkpoint itself. *)
  Window.trim rep.pend ck_in;
  reroute_pend ctrl rep;
  List.iter (fun chan -> (parked_entry ctrl chan).p_sealed <- false) rep.chans;
  retire ctrl rep

(* Flush then barrier on a checkpoint; trims the window to the durable
   acknowledgement.  A replica that crashes mid-drain is reactivated
   from its checkpoint by the retried Sync itself, and then reports the
   (rewound) durable position — the window above it survives in [pend]
   and is handed to the successor, so the voluntary and crash paths
   converge on the same arithmetic.  Takes the link's s_lock, so it
   also excludes (and waits out) any in-flight sender; no locks may be
   held on entry. *)
let sync_replica ?(wait = true) ctx ctrl rep =
  let locked =
    if wait then begin
      Semaphore.acquire rep.s_lock;
      true
    end
    else Semaphore.try_acquire rep.s_lock
  in
  if not locked then false
  else
  Fun.protect
    ~finally:(fun () -> Semaphore.release rep.s_lock)
    (fun () ->
      let rec round attempts =
        send_loop ctx ctrl rep;
        match
          Retry.invoke ~policy:retry_policy ~prng:ctrl.prng ctx rep.r_uid
            ~op:Eproto.sync_op Value.Unit
        with
        | Some (Ok (Value.Int durable)) ->
            Semaphore.acquire ctrl.lock;
            Window.trim rep.pend durable;
            (* The barrier's reply is the replica's full position: a
               reply below our transmit watermark proves the replica
               never received [durable, sent) — a reactivated
               incarnation reject-ahead'd a window after the crash
               sweep had already consumed the crash.  Rewind so the
               retransmission (this round or the next sweep) repairs
               the link; a deposit ack cannot distinguish this from an
               ordinary K-amortized short ack, only a Sync can. *)
            let stale = durable < rep.sent in
            if stale then rep.sent <- base rep;
            Semaphore.release ctrl.lock;
            if stale && attempts > 0 then round (attempts - 1) else true
        | Some (Ok v) ->
            violate ctrl "%s: malformed Sync reply %s" rep.r_label (Value.to_string v);
            false
        | Some (Error e) ->
            violate ctrl "%s: Sync refused: %s" rep.r_label e;
            false
        | None -> false
      in
      round 2)

(* Voluntary drain, two-phase so no blocking call happens under the
   router lock: fence (lock), flush + Sync barrier (link lock only),
   handoff (lock).  No locks held on entry. *)
let drain_replica ctx ctrl rep =
  Semaphore.acquire ctrl.lock;
  if rep.draining then Semaphore.release ctrl.lock
  else begin
    fence ctrl rep;
    Semaphore.release ctrl.lock;
    let obs = Kernel.obs ctrl.kernel in
    let span =
      if Obs.spans_enabled obs then
        Some
          (Obs.span_begin obs ~name:"elastic.drain" ~cat:"elastic"
             ~attrs:
               [
                 ("replica", rep.r_label);
                 ("chans", string_of_int (List.length rep.chans));
               ]
             ~at:(now ctrl) ())
      else None
    in
    let ok = sync_replica ctx ctrl rep in
    if not ok then
      instant ctrl "elastic.drain.wedged" [ ("replica", rep.r_label) ];
    Semaphore.acquire ctrl.lock;
    handoff ctrl rep;
    Semaphore.release ctrl.lock;
    (match span with Some id -> Obs.span_end obs id ~at:(now ctrl) ~ok | None -> ());
    instant ctrl "elastic.drain.end" [ ("replica", rep.r_label) ];
    assign_backlogged ctx ctrl
  end

(* Involuntary drain: the supervisor gave up on this replica, so there
   is no Sync — the durable checkpoint is all that survives, and the
   full retained window [base, next) replays to the successors.  No
   locks held on entry. *)
let adopt_rep ctx ctrl rep =
  instant ctrl "elastic.adopt" [ ("replica", rep.r_label) ];
  Semaphore.acquire ctrl.lock;
  if rep.draining then Semaphore.release ctrl.lock
  else begin
    fence ctrl rep;
    handoff ctrl rep;
    Semaphore.release ctrl.lock
  end;
  assign_backlogged ctx ctrl

(* Pick the cheapest victim: fewest channels, newest on a tie. *)
let drain_pick ctrl =
  match List.rev (live_reps ctrl) with
  | [] -> None
  | r0 :: rest ->
      Some
        (List.fold_left
           (fun best r ->
             if List.length r.chans < List.length best.chans then r else best)
           r0 rest)

(* No locks held on entry. *)
let reconcile ctx ctrl desired =
  let desired = max 0 desired in
  Semaphore.acquire ctrl.lock;
  let grew = ref false in
  while live_count ctrl < desired do
    ignore (spawn_replica ctrl);
    grew := true
  done;
  if !grew then begin
    note ctrl ~kind:"elastic.scale" ~arg:(live_count ctrl);
    instant ctrl "elastic.scale" [ ("live", string_of_int (live_count ctrl)) ]
  end;
  Semaphore.release ctrl.lock;
  if !grew then assign_backlogged ctx ctrl;
  let rec shrink () =
    Semaphore.acquire ctrl.lock;
    let victim = if live_count ctrl > desired then drain_pick ctrl else None in
    Semaphore.release ctrl.lock;
    match victim with
    | Some rep ->
        drain_replica ctx ctrl rep;
        shrink ()
    | None -> ()
  in
  shrink ()

(* The generalized AIMD controller sized in replicas: a backlog above
   the high watermark of current capacity widens the fleet additively,
   idleness below the low watermark halves it — the inverse signal
   mapping of batch sizing, where low occupancy is what widens. *)
let tick_scaler ctx ctrl =
  Semaphore.acquire ctrl.lock;
  let l = load ctrl in
  let p = Aimd.params_of ctrl.aimd in
  let denom = ctrl.p.capacity_per_replica * max 1 (Aimd.current ctrl.aimd) in
  let occ = float_of_int l /. float_of_int denom in
  if l > 0 && Aimd.current ctrl.aimd = 0 then Aimd.on_progress ctrl.aimd
  else if occ >= p.Aimd.high_watermark then Aimd.on_progress ctrl.aimd
  else if occ <= p.Aimd.low_watermark then Aimd.on_stall ctrl.aimd;
  let desired = Aimd.current ctrl.aimd in
  Semaphore.release ctrl.lock;
  reconcile ctx ctrl desired

(* Checkpoint-on-idle: a link whose window stopped growing still holds
   entries the replica has processed but not made durable — they read
   as phantom backlog (blocking scale-down) and would replay needlessly
   on a crash.  One quiet tick buys a Sync that trims the window. *)
let flush_idle ctx ctrl =
  Semaphore.acquire ctrl.lock;
  let idle =
    List.filter
      (fun rep ->
        next rep = rep.last_next && (not (Window.is_empty rep.pend)) && not rep.draining)
      ctrl.reps
  in
  List.iter (fun rep -> rep.last_next <- next rep) ctrl.reps;
  Semaphore.release ctrl.lock;
  (* [~wait:false]: a link whose sender is mid-deposit only looks idle —
     blocking on its send lock here would park the manager (and with it
     the scaler) for the whole in-flight window. *)
  List.iter (fun rep -> ignore (sync_replica ~wait:false ctx ctrl rep)) idle

let detect_crashes _ctx ctrl =
  Semaphore.acquire ctrl.lock;
  let hit =
    List.filter
      (fun rep -> Kernel.crash_count ctrl.kernel rep.r_uid > rep.last_crashes)
      ctrl.reps
  in
  List.iter
    (fun rep ->
      rep.last_crashes <- Kernel.crash_count ctrl.kernel rep.r_uid;
      (* The replica restarts from its checkpoint (the supervisor's
         poke, or activation by a retransmission), expecting position
         [base]; rewind and replay the retained window. *)
      rep.sent <- base rep)
    hit;
  Semaphore.release ctrl.lock;
  List.iter
    (fun rep ->
      instant ctrl "elastic.replay" [ ("replica", rep.r_label) ];
      forward_async ctrl rep)
    hit

let process_adoptions ctx ctrl =
  let q = ctrl.adopt_q in
  ctrl.adopt_q <- [];
  List.iter
    (fun uid ->
      match List.find_opt (fun r -> Uid.equal r.r_uid uid) ctrl.reps with
      | Some rep -> adopt_rep ctx ctrl rep
      | None -> ())
    q

let finalize ctx ctrl =
  if ctrl.eos && not ctrl.finished then begin
    Semaphore.acquire ctrl.lock;
    if load ctrl > 0 && live_count ctrl = 0 then begin
      (* Forced scale-from-zero: end of stream must not strand parked
         work when the controller is idling at its floor. *)
      ignore (spawn_replica ctrl);
      note ctrl ~kind:"elastic.scale" ~arg:(live_count ctrl)
    end;
    Semaphore.release ctrl.lock;
    assign_backlogged ctx ctrl;
    List.iter
      (fun rep -> if not (Window.is_empty rep.pend) then ignore (sync_replica ctx ctrl rep))
      ctrl.reps;
    if load ctrl = 0 && not ctrl.finished then begin
      (match Kernel.invoke ctx (sink_of ctrl) ~op:Eproto.finish_op Value.Unit with
      | Ok _ -> ()
      | Error e -> violate ctrl "sink: Finish refused: %s" e);
      (match ctrl.sup with Some s -> Supervisor.stop s | None -> ());
      instant ctrl "elastic.finish" []
    end
  end

let manager ctx ctrl =
  while not (ctrl.stopped || ctrl.finished) do
    Sched.sleep ctrl.p.tick;
    if not (ctrl.stopped || ctrl.finished) then begin
      Semaphore.acquire ctrl.lock;
      let t = now ctrl in
      ctrl.replica_seconds <-
        ctrl.replica_seconds +. (float_of_int (live_count ctrl) *. (t -. ctrl.last_tick));
      ctrl.last_tick <- t;
      Semaphore.release ctrl.lock;
      detect_crashes ctx ctrl;
      process_adoptions ctx ctrl;
      flush_idle ctx ctrl;
      if ctrl.p.auto then tick_scaler ctx ctrl;
      Semaphore.acquire ctrl.lock;
      let targets = flush_targets ctrl in
      Semaphore.release ctrl.lock;
      List.iter (forward_async ctrl) targets;
      finalize ctx ctrl
    end
  done

let router_behaviour ctrl ctx ~passive:_ =
  let deposit arg =
    let chan, eos, items, seq = Proto.parse_deposit_request_seq arg in
    if not (Channel.equal chan Channel.output) then
      raise (Kernel.Eden_error ("no such channel: " ^ Channel.to_string chan));
    Semaphore.acquire ctrl.lock;
    let ack =
      Fun.protect
        ~finally:(fun () -> Semaphore.release ctrl.lock)
        (fun () ->
          let seq = Option.value seq ~default:ctrl.in_seq in
          let fresh =
            match Intake.admit ~expected:ctrl.in_seq ~seq items with
            | Some fresh -> fresh
            | None ->
                raise
                  (Kernel.Eden_error
                     (Printf.sprintf "Deposit gap: at %d, expected %d" seq ctrl.in_seq))
          in
          List.iter
            (fun v ->
              route ctrl v;
              ctrl.in_seq <- ctrl.in_seq + 1)
            fresh;
          if eos then ctrl.eos <- true;
          ctrl.in_seq)
    in
    (* Acknowledge on acceptance: the retained per-link windows are the
       durability ledger from here on, so the producer need not wait
       out the replica round trips — those proceed in parallel worker
       fibers, one per touched link. *)
    List.iter
      (fun rep ->
        if rep.sent < next rep then
          Kernel.spawn_worker ctx ~name:(rep.r_label ^ "/fwd") (fun () ->
              forward ctx ctrl rep))
      ctrl.reps;
    Proto.deposit_ack ~next_seq:ack
  in
  [ (Proto.deposit_op, deposit); ("Ping", fun _ -> Value.Unit) ]

(* --- Construction and the public surface ----------------------------- *)

let create k ?node ?defect ?supervise ?on_output ~classify ~spec p =
  let ctrl =
    {
      kernel = k;
      p;
      spec;
      classify;
      defect;
      lock = Semaphore.create 1;
      prng = Prng.create 0xE1A57CL;
      aimd = Aimd.create p.ctrl;
      sup = None;
      reps = [];
      spawned = 0;
      max_live = 0;
      assign = Hashtbl.create 64;
      parked_tbl = Hashtbl.create 64;
      stamp = Hashtbl.create 64;
      in_seq = 0;
      eos = false;
      finished = false;
      stopped = false;
      adopt_q = [];
      violations = [];
      replica_seconds = 0.0;
      last_tick = Sched.now (Kernel.sched k);
      router_flow = Obs.register_stage (Kernel.obs k) "elastic-router";
      sink_links = Hashtbl.create 16;
      turnstile = Hashtbl.create 64;
      out_tbl = Hashtbl.create 64;
      on_output;
      done_ = Ivar.create ();
      router_uid = None;
      sink_uid = None;
    }
  in
  ctrl.sink_uid <-
    Some
      (Kernel.create_eject k ?node ~dispatch:Kernel.Concurrent ~type_name:"elastic-sink"
         (sink_behaviour ctrl));
  ctrl.router_uid <-
    Some
      (Kernel.create_eject k ?node ~dispatch:Kernel.Concurrent ~type_name:"elastic-router"
         (router_behaviour ctrl));
  (match supervise with
  | Some policy ->
      let sup =
        Supervisor.create k ?node ~name:"elastic-supervisor" ~policy
          ~on_give_up:(fun _label uid -> ctrl.adopt_q <- ctrl.adopt_q @ [ uid ])
          ()
      in
      ctrl.sup <- Some sup
  | None -> ());
  (* The controller's floor is the initial fleet (min = max = N gives a
     fixed-size stage; min 0 gives scale-to-zero elasticity). *)
  for _ = 1 to Aimd.current ctrl.aimd do
    ignore (spawn_replica ctrl)
  done;
  ctrl

let start ctrl =
  ctrl.last_tick <- Sched.now (Kernel.sched ctrl.kernel);
  (match ctrl.sup with Some s -> Supervisor.start s | None -> ());
  Kernel.spawn_driver ctrl.kernel ~name:"elastic/manager" (fun ctx -> manager ctx ctrl)

let router ctrl =
  match ctrl.router_uid with Some u -> u | None -> failwith "Elastic: router not created"

let supervisor ctrl = ctrl.sup
let await ctrl = Ivar.read ctrl.done_

let await_timeout ctrl ~timeout =
  let deadline = now ctrl +. timeout in
  let rec go () =
    if Ivar.is_filled ctrl.done_ then true
    else if now ctrl >= deadline then false
    else begin
      Sched.sleep ctrl.p.tick;
      go ()
    end
  in
  go ()

let stop ctrl =
  ctrl.stopped <- true;
  match ctrl.sup with Some s -> Supervisor.stop s | None -> ()

let with_lock ctrl f =
  Semaphore.acquire ctrl.lock;
  Fun.protect ~finally:(fun () -> Semaphore.release ctrl.lock) f

let scale_to ctx ctrl n = reconcile ctx ctrl n

let drain_one ctx ctrl =
  let victim = with_lock ctrl (fun () -> drain_pick ctrl) in
  match victim with
  | Some rep ->
      drain_replica ctx ctrl rep;
      true
  | None -> false

let adopt ctx ctrl uid =
  match List.find_opt (fun r -> Uid.equal r.r_uid uid) ctrl.reps with
  | Some rep ->
      adopt_rep ctx ctrl rep;
      true
  | None -> false

let replay_all ctx ctrl =
  let targets =
    with_lock ctrl (fun () ->
        List.iter (fun rep -> rep.sent <- base rep) ctrl.reps;
        List.filter (fun r -> not (Window.is_empty r.pend)) ctrl.reps)
  in
  List.iter (forward ctx ctrl) targets

let live_replicas ctrl = live_count ctrl
let replicas_spawned ctrl = ctrl.spawned
let max_live ctrl = ctrl.max_live

let replica_seconds ctrl =
  (* Include the open interval since the last tick, so readings taken
     between ticks (or after [finish]) are not truncated. *)
  ctrl.replica_seconds
  +. (float_of_int (live_count ctrl) *. (now ctrl -. ctrl.last_tick))

let violations ctrl = List.rev ctrl.violations
let parked ctrl = Hashtbl.length ctrl.parked_tbl

let backlog ctrl = with_lock ctrl (fun () -> load ctrl)

let outputs ctrl =
  Hashtbl.fold (fun chan r acc -> (chan, List.rev !r) :: acc) ctrl.out_tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let assignments ctrl =
  Hashtbl.fold (fun chan rep acc -> (chan, rep.r_label) :: acc) ctrl.assign []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let replica_uids ctrl = List.map (fun r -> (r.r_label, r.r_uid)) ctrl.reps

let windows ctrl =
  List.map (fun r -> (r.r_label, base r, r.sent, next r)) ctrl.reps
