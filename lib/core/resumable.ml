module Value = Eden_kernel.Value
module Kernel = Eden_kernel.Kernel
module Uid = Eden_kernel.Uid
module Semaphore = Eden_sched.Semaphore
module Prng = Eden_util.Prng
module Retry = Eden_resil.Retry

type spec = {
  init : Value.t;
  step : Value.t -> Value.t -> Value.t * Value.t list;
  flush : Value.t -> Value.t list;
}

let pure_map f = { init = Value.Unit; step = (fun st v -> (st, [ f v ])); flush = (fun _ -> []) }

let pure_filter p =
  { init = Value.Unit; step = (fun st v -> (st, if p v then [ v ] else [])); flush = (fun _ -> []) }

type gen = int -> Value.t option

(* A sink's transform: accumulate the stream, newest first. *)
let accumulate =
  {
    init = Value.List [];
    step = (fun st v -> (Value.List (v :: Value.to_list st), []));
    flush = (fun _ -> []);
  }
let ping = ("Ping", fun _ -> Value.Unit)

(* A stage worker that runs out of retry budget (or hits a peer's
   terminal error) gives up cleanly: the pipeline stalls — visible to
   the stall detector — instead of tearing the whole simulation down. *)
let guard body = try body () with Retry.Exhausted _ | Kernel.Eden_error _ -> ()

(* Every stage checkpoints one shape: input position, transform state,
   output side's state, and whether the stream is complete. *)
let restore passive init =
  match passive with
  | Some (Value.List [ Value.Int i; st; o; Value.Bool d ]) -> (i, st, Some o, d)
  | _ -> (0, init, None, false)

let save ctx ~pos st (out_state : Value.t) ~done_ =
  Kernel.checkpoint ctx (Value.List [ Value.Int pos; st; out_state; Value.Bool done_ ])

(* Where a stage's outputs go: a retaining port it serves, a resumable
   push it deposits through, or (a sink) nowhere but its fold state. *)
type out = {
  ready : unit -> unit; (* wait for room before computing more *)
  emit : Value.t -> unit;
  settle : unit -> unit; (* make everything emitted durable downstream *)
  finish : unit -> unit; (* end of stream downstream *)
  pos : unit -> int; (* stream position of the next [emit] *)
  pending : unit -> int; (* emitted but not yet durable downstream *)
  encode : unit -> Value.t;
}

let port_out w =
  {
    ready = (fun () -> Port.await_writable w);
    emit = Port.write w;
    settle = ignore;
    finish = (fun () -> Port.close w);
    pos = (fun () -> Port.cursor w + Port.buffered w);
    pending = (fun () -> 0);
    encode = (fun () -> Port.encode w);
  }

let push_out p =
  {
    ready = ignore;
    emit = Push.write p;
    settle = (fun () -> Push.flush p);
    finish = (fun () -> Push.close p);
    pos = (fun () -> Push.pos p);
    pending = (fun () -> Push.pending p);
    encode = (fun () -> Value.Int (Push.pos p));
  }

let fold_out on_done =
  {
    ready = ignore;
    emit = ignore;
    settle = ignore;
    finish = on_done;
    pos = (fun () -> 0);
    pending = (fun () -> 0);
    encode = (fun () -> Value.Unit);
  }

(* A retaining port whose state [restore]d from a checkpoint. *)
let restored_port ~capacity o =
  let port = Port.create () in
  let w = Port.add_channel port ~capacity ~retain:true Channel.output in
  Option.iter (Port.load w) o;
  (port, w)

let out_pos = function Some (Value.Int o) -> o | _ -> 0

(* A source's pump: item [i] of the indexed generator goes out at
   position [i], checkpointed whenever nothing emitted is pending. *)
let produce ctx ~name ~done0 gen out =
  Kernel.spawn_worker ctx ~name:(name ^ "/produce") (fun () ->
      if not done0 then
        guard (fun () ->
            let ckpt done_ = save ctx ~pos:0 Value.Unit (out.encode ()) ~done_ in
            let rec go () =
              out.ready ();
              match gen (out.pos ()) with
              | Some v ->
                  out.emit v;
                  if out.pending () = 0 then ckpt false;
                  go ()
              | None ->
                  out.finish ();
                  ckpt true
            in
            go ()))

(* A stage with active input: read through a resumable pull and, at
   every batch boundary, make the batch durable downstream and
   checkpoint {e before} the next read acknowledges it upstream. *)
let pump ctx ~name ~st0 ~done0 spec out connect =
  Kernel.spawn_worker ctx ~name:(name ^ "/pump") (fun () ->
      if not done0 then
        guard (fun () ->
            let pull = connect () in
            let st = ref st0 in
            let ckpt done_ = save ctx ~pos:(Pull.pos pull) !st (out.encode ()) ~done_ in
            let rec go () =
              if Pull.buffered pull = 0 then out.ready ();
              match Pull.read pull with
              | Some v ->
                  let st', outs = spec.step !st v in
                  st := st';
                  List.iter out.emit outs;
                  if Pull.buffered pull = 0 then begin
                    out.settle ();
                    ckpt false
                  end;
                  go ()
              | None ->
                  List.iter out.emit (spec.flush !st);
                  out.finish ();
                  ckpt true
            in
            go ()))

(* A stage with passive input: admit a (possibly replayed) deposit
   against the expected position ({!Intake.admit}), process the fresh
   suffix, make its outputs durable downstream, checkpoint, and only
   then acknowledge with the next expected position — so an
   acknowledged item is always durable here.  Deposits are serialised,
   so a retried duplicate waits out the original and admits nothing. *)
let admit_deposits ctx ~in0 ~st0 ~done0 spec out =
  let in_seq = ref in0 and st = ref st0 and finished = ref done0 in
  let lock = Semaphore.create 1 in
  let deposit arg =
    let chan, eos, items, seq = Proto.parse_deposit_request_seq arg in
    if not (Channel.equal chan Channel.output) then
      raise (Kernel.Eden_error ("no such channel: " ^ Channel.to_string chan));
    Semaphore.acquire lock;
    Fun.protect
      ~finally:(fun () -> Semaphore.release lock)
      (fun () ->
        if not !finished then begin
          let seq = Option.value seq ~default:!in_seq in
          match Intake.admit ~expected:!in_seq ~seq items with
          | None ->
              raise
                (Kernel.Eden_error (Printf.sprintf "Deposit gap: at %d, expected %d" seq !in_seq))
          | Some fresh ->
              List.iter
                (fun v ->
                  let st', outs = spec.step !st v in
                  st := st';
                  List.iter out.emit outs;
                  incr in_seq)
                fresh;
              if fresh <> [] then out.settle ();
              if eos then begin
                List.iter out.emit (spec.flush !st);
                out.finish ();
                finished := true
              end;
              save ctx ~pos:!in_seq !st (out.encode ()) ~done_:!finished
        end;
        Proto.deposit_ack ~next_seq:!in_seq)
  in
  (Proto.deposit_op, deposit)

(* --- Read-only ------------------------------------------------------ *)

let source_ro k ?node ?(name = "rsource") ?(capacity = 0) gen =
  Stage.custom k ?node ~name (fun ctx ~passive ->
      let _, _, o, _ = restore passive Value.Unit in
      let port, w = restored_port ~capacity o in
      produce ctx ~name ~done0:(Port.is_closed w) gen (port_out w);
      ping :: Port.handlers port)

let filter_ro k ?node ?(name = "rfilter") ?(capacity = 0) ?flowctl ~retry ~upstream spec =
  Stage.custom k ?node ~name (fun ctx ~passive ->
      let in0, st0, o, _ = restore passive spec.init in
      let port, w = restored_port ~capacity o in
      pump ctx ~name ~st0 ~done0:(Port.is_closed w) spec (port_out w) (fun () ->
          Pull.connect ctx ?flowctl ~retry ~from:in0 upstream);
      ping :: Port.handlers port)

let sink_ro k ?node ?(name = "rsink") ?flowctl ~retry ~upstream ?(on_done = fun () -> ()) () =
  Stage.custom k ?node ~name (fun ctx ~passive ->
      let in0, st0, _, done0 = restore passive accumulate.init in
      if done0 then on_done ();
      pump ctx ~name ~st0 ~done0 accumulate (fold_out on_done) (fun () ->
          Pull.connect ctx ?flowctl ~retry ~from:in0 upstream);
      [ ping ])

(* --- Write-only ----------------------------------------------------- *)

let source_wo k ?node ?(name = "rsource") ?flowctl ~retry ~downstream gen =
  Stage.custom k ?node ~name (fun ctx ~passive ->
      let _, _, o, done0 = restore passive Value.Unit in
      let push = Push.connect ctx ?flowctl ~retry ~from:(out_pos o) downstream in
      produce ctx ~name ~done0 gen (push_out push);
      [ ping ])

let filter_wo k ?node ?(name = "rfilter") ?flowctl ~retry ~downstream spec =
  Stage.custom k ?node ~name (fun ctx ~passive ->
      let in0, st0, o, done0 = restore passive spec.init in
      let push = Push.connect ctx ?flowctl ~retry ~from:(out_pos o) downstream in
      [ admit_deposits ctx ~in0 ~st0 ~done0 spec (push_out push); ping ])

let sink_wo k ?node ?(name = "rsink") ?(on_done = fun () -> ()) () =
  Stage.custom k ?node ~name (fun ctx ~passive ->
      let in0, st0, _, done0 = restore passive accumulate.init in
      if done0 then on_done ();
      [ admit_deposits ctx ~in0 ~st0 ~done0 accumulate (fold_out on_done); ping ])

(* --- Conventional --------------------------------------------------- *)

let pipe k ?node ?(name = "rpipe") ?(capacity = 4) () =
  Stage.custom k ?node ~name (fun ctx ~passive ->
      let in0, _, o, done0 = restore passive Value.Unit in
      let port, w = restored_port ~capacity o in
      (* Port.write parks when the buffer is [capacity] ahead of demand,
         withholding the acknowledgement — back-pressure. *)
      admit_deposits ctx ~in0 ~st0:Value.Unit ~done0 (pure_map Fun.id) (port_out w)
      :: ping :: Port.handlers port)

let filter_active k ?node ?(name = "rfilter") ?flowctl ~retry ~upstream ~downstream spec =
  Stage.custom k ?node ~name (fun ctx ~passive ->
      let in0, st0, o, done0 = restore passive spec.init in
      (* The output side draws its jitter from a second stream. *)
      let seed = Prng.next_int64 (Prng.create retry.Retry.seed) in
      let push = Push.connect ctx ?flowctl ~retry:{ retry with seed } ~from:(out_pos o) downstream in
      pump ctx ~name ~st0 ~done0 spec (push_out push) (fun () ->
          Pull.connect ctx ?flowctl ~retry ~from:in0 upstream);
      [ ping ])

let sink_output k uid =
  match Kernel.checkpoints k uid with
  | (_, Value.List [ Value.Int _; Value.List items; _; Value.Bool _ ]) :: _ ->
      Some (List.rev items)
  | _ -> None
