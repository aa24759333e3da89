module Value = Eden_kernel.Value
module Kernel = Eden_kernel.Kernel
module Uid = Eden_kernel.Uid
module Obs = Eden_obs.Obs
module Sched = Eden_sched.Sched
module Aimd = Eden_flowctl.Aimd

type gen = unit -> Value.t option
type consume = Value.t -> unit

let custom k ?node ?(dispatch = Kernel.Concurrent) ~name behaviour =
  Kernel.create_eject k ?node ~dispatch ~type_name:name behaviour

(* --- Flow instrumentation ------------------------------------------- *)

(* Every stage constructor takes [?flow]; when given, blocking reads
   and writes are timed into the stage's wait histogram
   ("stage.<label>.wait" on the kernel's collector) and items/batches
   are counted through the flow meter.  With [flow = None] each
   wrapper is the identity — unmetered stages pay nothing. *)

type meter = { fl : Obs.Flow.stage; hist : Obs.Histogram.t }

let meter_of k flow =
  Option.map
    (fun fl ->
      { fl; hist = Obs.histogram (Kernel.obs k) ("stage." ^ fl.Obs.Flow.label ^ ".wait") })
    flow

(* Time a blocking operation from inside a worker fiber, charging the
   elapsed virtual time to the stage's input or output stall. *)
let timed m dir f =
  match m with
  | None -> f ()
  | Some { fl; hist } ->
      let t0 = Sched.time () in
      let r = f () in
      let d = Sched.time () -. t0 in
      (match dir with `In -> Obs.Flow.wait_in fl d | `Out -> Obs.Flow.wait_out fl d);
      Obs.Histogram.add hist d;
      r

(* Items and bytes are counted together; bytes follow the Value.size
   law, so a chunk is charged its whole payload where a boxed line
   charges its few dozen bytes — the meters stay truthful under the
   chunked discipline. *)
let count_in m r =
  (match (m, r) with
  | Some { fl; _ }, Some v ->
      Obs.Flow.note_in fl;
      Obs.Flow.note_bytes_in fl (Value.size v)
  | _ -> ());
  r

let count_out m v =
  match m with
  | Some { fl; _ } ->
      Obs.Flow.note_out fl;
      Obs.Flow.note_bytes_out fl (Value.size v)
  | None -> ()
let note_batches m n = match m with Some { fl; _ } -> Obs.Flow.note_batches fl n | None -> ()

(* Downstream backpressure feeding an upstream adaptive controller:
   when this stage's emit blocks in virtual time (no demand, full
   buffer — the same quantity the flow meter records as stall_out),
   the batches it pulls from upstream shrink. *)
let feeding_stall ctrl f =
  match ctrl with
  | None -> f ()
  | Some c ->
      let t0 = Sched.time () in
      let r = f () in
      if Sched.time () -. t0 > 0.0 then Aimd.on_stall c;
      r

(* --- Read-only ------------------------------------------------------ *)

let source_ro k ?node ?(name = "source") ?(capacity = 0) ?flow gen =
  custom k ?node ~name (fun ctx ~passive:_ ->
      let m = meter_of k flow in
      let port = Port.create () in
      let w = Port.add_channel port ~capacity Channel.output in
      Kernel.spawn_worker ctx ~name:(name ^ "/produce") (fun () ->
          (* Wait for room before generating, so production never runs
             beyond the declared anticipation. *)
          let rec go () =
            timed m `Out (fun () -> Port.await_writable w);
            match gen () with
            | Some v ->
                Port.write w v;
                count_out m v;
                go ()
            | None -> Port.close w
          in
          go ());
      Port.handlers port)

let filter_ro k ?node ?(name = "filter") ?(capacity = 0) ?(batch = 1) ?flowctl ?flow
    ~upstream ?(upstream_channel = Channel.output) transform =
  custom k ?node ~name (fun ctx ~passive:_ ->
      let m = meter_of k flow in
      let port = Port.create () in
      let w = Port.add_channel port ~capacity Channel.output in
      let pull = Pull.connect ctx ~batch ?flowctl ~channel:upstream_channel upstream in
      let ctrl = Pull.controller pull in
      let next () =
        let r = timed m `In (fun () -> Pull.read pull) in
        note_batches m (Pull.transfers_issued pull);
        count_in m r
      in
      let emit v =
        feeding_stall ctrl (fun () -> timed m `Out (fun () -> Port.write w v));
        count_out m v
      in
      Kernel.spawn_worker ctx ~name:(name ^ "/transform") (fun () ->
          if capacity = 0 then Port.await_demand w;
          transform next emit;
          Port.close w);
      Port.handlers port)

let sink_ro k ?node ?(name = "sink") ?(batch = 1) ?flowctl ?flow ~upstream
    ?(upstream_channel = Channel.output) ?(on_done = fun () -> ()) consume =
  custom k ?node ~name (fun ctx ~passive:_ ->
      let m = meter_of k flow in
      let pull = Pull.connect ctx ~batch ?flowctl ~channel:upstream_channel upstream in
      Kernel.spawn_worker ctx ~name:(name ^ "/pump") (fun () ->
          let rec go () =
            let r = timed m `In (fun () -> Pull.read pull) in
            note_batches m (Pull.transfers_issued pull);
            match count_in m r with
            | Some v ->
                consume v;
                go ()
            | None -> on_done ()
          in
          go ());
      [])

(* --- Write-only ----------------------------------------------------- *)

let source_wo k ?node ?(name = "source") ?(batch = 1) ?flowctl ?flow ~downstream
    ?(downstream_channel = Channel.output) gen =
  custom k ?node ~name (fun ctx ~passive:_ ->
      let m = meter_of k flow in
      let push = Push.connect ctx ~batch ?flowctl ~channel:downstream_channel downstream in
      Kernel.spawn_worker ctx ~name:(name ^ "/pump") (fun () ->
          let rec go () =
            match gen () with
            | Some v ->
                timed m `Out (fun () -> Push.write push v);
                note_batches m (Push.deposits_issued push);
                count_out m v;
                go ()
            | None -> Push.close push
          in
          go ());
      [])

let filter_wo k ?node ?(name = "filter") ?(capacity = 1) ?(batch = 1) ?flowctl ?flow
    ~downstream ?(downstream_channel = Channel.output) transform =
  custom k ?node ~name (fun ctx ~passive:_ ->
      let m = meter_of k flow in
      let intake = Intake.create () in
      let r = Intake.add_channel intake ~capacity Channel.output in
      let push = Push.connect ctx ~batch ?flowctl ~channel:downstream_channel downstream in
      let next () = count_in m (timed m `In (fun () -> Intake.read r)) in
      let emit v =
        timed m `Out (fun () -> Push.write push v);
        note_batches m (Push.deposits_issued push);
        count_out m v
      in
      Kernel.spawn_worker ctx ~name:(name ^ "/transform") (fun () ->
          transform next emit;
          Push.close push);
      Intake.handlers intake)

let sink_wo k ?node ?(name = "sink") ?(capacity = 1) ?flow ?(on_done = fun () -> ()) consume =
  custom k ?node ~name (fun ctx ~passive:_ ->
      let m = meter_of k flow in
      let intake = Intake.create () in
      let r = Intake.add_channel intake ~capacity Channel.output in
      Kernel.spawn_worker ctx ~name:(name ^ "/consume") (fun () ->
          let rec go () =
            match count_in m (timed m `In (fun () -> Intake.read r)) with
            | Some v ->
                consume v;
                go ()
            | None -> on_done ()
          in
          go ());
      Intake.handlers intake)

(* --- Conventional --------------------------------------------------- *)

let pipe k ?node ?(name = "pipe") ?(capacity = 4) ?flow () =
  custom k ?node ~name (fun ctx ~passive:_ ->
      let m = meter_of k flow in
      let intake = Intake.create () in
      let r = Intake.add_channel intake ~capacity Channel.output in
      let port = Port.create () in
      let w = Port.add_channel port ~capacity:0 Channel.output in
      (* The internal copy from intake to port costs no invocations; the
         pipe is one Eject with one buffer, observed from both sides. *)
      Kernel.spawn_worker ctx ~name:(name ^ "/buffer") (fun () ->
          let rec go () =
            match count_in m (timed m `In (fun () -> Intake.read r)) with
            | Some v ->
                timed m `Out (fun () -> Port.write w v);
                count_out m v;
                go ()
            | None -> Port.close w
          in
          go ());
      Intake.handlers intake @ Port.handlers port)

let filter_active k ?node ?(name = "filter") ?(batch = 1) ?flowctl ?flow ~upstream ~downstream
    transform =
  custom k ?node ~name (fun ctx ~passive:_ ->
      let m = meter_of k flow in
      let pull = Pull.connect ctx ~batch ?flowctl upstream in
      let push = Push.connect ctx ~batch ?flowctl downstream in
      let ctrl = Pull.controller pull in
      (* Batches here are whole protocol exchanges on either side. *)
      let batches () = Pull.transfers_issued pull + Push.deposits_issued push in
      let next () =
        let r = timed m `In (fun () -> Pull.read pull) in
        note_batches m (batches ());
        count_in m r
      in
      let emit v =
        feeding_stall ctrl (fun () -> timed m `Out (fun () -> Push.write push v));
        note_batches m (batches ());
        count_out m v
      in
      Kernel.spawn_worker ctx ~name:(name ^ "/pump") (fun () ->
          transform next emit;
          Push.close push);
      [])
