module Value = Eden_kernel.Value
module Kernel = Eden_kernel.Kernel
module Uid = Eden_kernel.Uid
module Ivar = Eden_sched.Ivar
module Sched = Eden_sched.Sched
module Flowctl = Eden_flowctl.Flowctl
module Aimd = Eden_flowctl.Aimd
module Credit = Eden_flowctl.Credit
module Retry = Eden_resil.Retry
module Prng = Eden_util.Prng

(* Windowed state: several seq-stamped transfers kept in flight at
   once.  Each request's start position is computed from the credits
   asked before it — sound because the port serves seq-stamped
   requests exact-fill (see Port), so a short reply implies end of
   stream and every other reply carries exactly what was asked. *)
type window = {
  wsched : Sched.t; (* for credit take/give decision notes *)
  credit : Credit.t;
  outstanding : (int * Kernel.reply Ivar.t) Queue.t; (* (asked, reply) *)
  mutable stalls : int; (* reads that had to wait on the network *)
}

(* Sync: one plain transfer at a time.  Windowed: pipelined stamped
   transfers.  Resumable: one stamped transfer at a time, retried. *)
type mode = Sync | Windowed of window | Resumable of Retry.client * Prng.t

type t = {
  ctx : Kernel.ctx;
  src : Uid.t;
  chan : Channel.t;
  batch : int;
  mode : mode;
  wrap : Value.t -> Value.t;
  ctrl : Aimd.t option; (* adaptive request sizing; [batch] when absent *)
  mutable next : int; (* stamped modes: position the next request asks for *)
  mutable pos : int; (* position of the next item [read] returns *)
  mutable buf : Value.t list;
  mutable eos : bool;
  mutable transfers : int;
}

let connect ctx ?(batch = 1) ?flowctl ?(channel = Channel.output) ?(wrap = Fun.id) ?retry
    ?(from = 0) src =
  if batch < 1 then invalid_arg "Pull.connect: batch must be at least 1";
  if from < 0 then invalid_arg "Pull.connect: from must be non-negative";
  let mode =
    match (retry, flowctl) with
    | Some r, _ -> Resumable (r, Prng.create r.Retry.seed)
    | None, None -> Sync
    | None, Some fc when Flowctl.is_legacy fc -> Sync
    | None, Some fc ->
        Windowed
          {
            wsched = Kernel.sched (Kernel.kernel ctx);
            credit = Flowctl.credit fc;
            outstanding = Queue.create ();
            stalls = 0;
          }
  in
  let batch = match flowctl with None -> batch | Some fc -> Flowctl.initial_batch fc in
  let ctrl = match mode with Sync -> None | _ -> Option.bind flowctl Flowctl.controller in
  { ctx; src; chan = channel; batch; mode; wrap; ctrl; next = from; pos = from; buf = [];
    eos = false; transfers = 0 }

let asked t = match t.ctrl with Some c -> Aimd.current c | None -> t.batch

(* Issue transfers until the credit window is full.  Called only from
   [read] before end of stream — never at connect time — so a pipeline
   with no consumer stays completely lazy. *)
let refill t w =
  while Credit.take w.credit do
    Sched.note w.wsched ~kind:"credit.take" ~arg:(Credit.in_flight w.credit);
    let asked = asked t in
    t.transfers <- t.transfers + 1;
    let ivar =
      Kernel.invoke_async t.ctx t.src ~op:Proto.transfer_op
        (t.wrap (Proto.transfer_request ~seq:t.next t.chan ~credit:asked))
    in
    t.next <- t.next + asked;
    Queue.push (asked, ivar) w.outstanding
  done

(* One retried stamped exchange for the items at [next]: a lost
   message, a lost reply or a crashed producer costs only time, and
   the stamp makes the re-request idempotent.  The stamp also
   acknowledges everything below [next] to the producer. *)
let exchange t r prng =
  let asked = asked t in
  let reply =
    Retry.call ~policy:r.Retry.policy ?meter:r.Retry.meter ~prng t.ctx t.src
      ~op:Proto.transfer_op
      (t.wrap (Proto.transfer_request ~seq:t.next t.chan ~credit:asked))
  in
  t.transfers <- t.transfers + 1;
  let { Proto.eos; items }, rbase = Proto.parse_transfer_reply_base reply in
  (match rbase with
  | Some b when b <> t.next ->
      raise
        (Value.Protocol_error
           (Printf.sprintf "Transfer reply based at %d, requested %d" b t.next))
  | _ -> ());
  t.eos <- eos;
  t.buf <- items;
  t.next <- t.next + List.length items;
  (* A full reply means the producer keeps pace: widen the next
     request.  Short replies here carry no shrink signal (the producer
     answers with what it has); recovery shrinks through Retry's
     backoff instead. *)
  if (not eos) && List.length items >= asked then Option.iter Aimd.on_progress t.ctrl

let rec read t =
  match t.buf with
  | x :: rest ->
      t.buf <- rest;
      t.pos <- t.pos + 1;
      Some x
  | [] -> (
      if t.eos then None
      else
        match t.mode with
        | Sync ->
            t.transfers <- t.transfers + 1;
            let reply =
              Kernel.call t.ctx t.src ~op:Proto.transfer_op
                (t.wrap (Proto.transfer_request t.chan ~credit:t.batch))
            in
            let { Proto.eos; items } = Proto.parse_transfer_reply reply in
            t.eos <- eos;
            t.buf <- items;
            (* A live producer never replies empty without eos, but retry
               defensively rather than fabricate an end of stream. *)
            read t
        | Resumable (r, prng) ->
            exchange t r prng;
            read t
        | Windowed w -> (
            refill t w;
            match Queue.take_opt w.outstanding with
            | None ->
                (* Unreachable with a correct window (refill always
                   issues when nothing is outstanding); treat as eos
                   rather than spin. *)
                t.eos <- true;
                None
            | Some (asked, ivar) -> (
                if not (Ivar.is_filled ivar) then w.stalls <- w.stalls + 1;
                let reply = Ivar.read ivar in
                Credit.give w.credit;
                Sched.note w.wsched ~kind:"credit.give" ~arg:(Credit.in_flight w.credit);
                match reply with
                | Error msg -> raise (Kernel.Eden_error msg)
                | Ok v ->
                    let { Proto.eos; items } = Proto.parse_transfer_reply v in
                    let n = List.length items in
                    (* Exact-fill contract: short means drained. *)
                    if eos || n < asked then t.eos <- true
                    else Option.iter Aimd.on_progress t.ctrl;
                    t.buf <- items;
                    read t)))

let iter f t =
  let rec go () =
    match read t with
    | Some v ->
        f v;
        go ()
    | None -> ()
  in
  go ()

let source t = t.src
let channel t = t.chan
let transfers_issued t = t.transfers
let pos t = t.pos
let buffered t = List.length t.buf
let controller t = t.ctrl
let stalls t = match t.mode with Windowed w -> w.stalls | Sync | Resumable _ -> 0
let credit t = match t.mode with Windowed w -> Some w.credit | Sync | Resumable _ -> None
