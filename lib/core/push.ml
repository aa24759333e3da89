module Value = Eden_kernel.Value
module Kernel = Eden_kernel.Kernel
module Uid = Eden_kernel.Uid
module Ivar = Eden_sched.Ivar
module Sched = Eden_sched.Sched
module Flowctl = Eden_flowctl.Flowctl
module Aimd = Eden_flowctl.Aimd
module Credit = Eden_flowctl.Credit
module Chunk = Eden_chunk.Chunk
module Retry = Eden_resil.Retry
module Prng = Eden_util.Prng

(* Windowed state: several seq-stamped deposits in flight at once.
   Each batch carries the absolute position of its first item (counting
   deposited values, so a coalesced chunk is one position); the
   intake's turnstile reorders network-scrambled arrivals, and stale
   positions error.  Requires a single writer per channel. *)
type window = {
  wsched : Sched.t; (* for credit take/give decision notes *)
  credit : Credit.t;
  mutable next_seq : int;
  outstanding : Kernel.reply Ivar.t Queue.t;
  mutable stalls : int; (* acks that had to be awaited *)
}

(* Sync: one plain deposit at a time.  Windowed: pipelined stamped
   deposits.  Resumable: one stamped deposit at a time, retried until
   acknowledged in full. *)
type mode = Sync | Windowed of window | Resumable of Retry.client * Prng.t

type t = {
  ctx : Kernel.ctx;
  dst : Uid.t;
  chan : Channel.t;
  batch : int;
  mode : mode;
  wrap : Value.t -> Value.t;
  ctrl : Aimd.t option; (* adaptive flush threshold; [batch] when absent *)
  chunk_bytes : int option; (* chunked plane: coalescing threshold *)
  pend : Value.t Window.t; (* written, not yet deposited (resumable: not
                              yet acknowledged), at stream positions *)
  mutable acked : int; (* resumable: the consumer's next expected position *)
  mutable pending_bytes : int;
  mutable closed : bool;
  mutable deposits : int;
  mutable chunks_sent : int;
}

let connect ctx ?(batch = 1) ?flowctl ?(channel = Channel.output) ?(wrap = Fun.id) ?retry
    ?(from = 0) dst =
  if batch < 1 then invalid_arg "Push.connect: batch must be at least 1";
  if from < 0 then invalid_arg "Push.connect: from must be non-negative";
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
            next_seq = from;
            outstanding = Queue.create ();
            stalls = 0;
          }
  in
  let batch = match flowctl with None -> batch | Some fc -> Flowctl.initial_batch fc in
  let ctrl = match mode with Sync -> None | _ -> Option.bind flowctl Flowctl.controller in
  let chunk_bytes = Option.bind flowctl Flowctl.chunk_bytes in
  {
    ctx;
    dst;
    chan = channel;
    batch;
    mode;
    wrap;
    ctrl;
    chunk_bytes;
    pend = Window.create ~base:from ();
    acked = from;
    pending_bytes = 0;
    closed = false;
    deposits = 0;
    chunks_sent = 0;
  }

(* Consume the oldest outstanding ack, blocking if it has not arrived;
   an [Error] ack (stale seq, closed intake) surfaces here. *)
let reap w =
  match Queue.take_opt w.outstanding with
  | None -> ()
  | Some ivar -> (
      if not (Ivar.is_filled ivar) then w.stalls <- w.stalls + 1;
      let reply = Ivar.read ivar in
      Credit.give w.credit;
      Sched.note w.wsched ~kind:"credit.give" ~arg:(Credit.in_flight w.credit);
      match reply with
      | Ok _ -> ()
      | Error msg -> raise (Kernel.Eden_error ("Push: deposit failed: " ^ msg)))

let send_windowed t w ~eos items =
  let had_to_wait = ref false in
  while not (Credit.take w.credit) do
    (* Window full: draining the oldest ack is the backpressure. *)
    if
      not
        (match Queue.peek_opt w.outstanding with
        | Some iv -> Ivar.is_filled iv
        | None -> true)
    then had_to_wait := true;
    reap w
  done;
  Sched.note w.wsched ~kind:"credit.take" ~arg:(Credit.in_flight w.credit);
  (match t.ctrl with
  | Some c -> if !had_to_wait then Aimd.on_stall c else Aimd.on_progress c
  | None -> ());
  t.deposits <- t.deposits + 1;
  let ivar =
    Kernel.invoke_async t.ctx t.dst ~op:Proto.deposit_op
      (t.wrap (Proto.deposit_request ~seq:w.next_seq t.chan ~eos items))
  in
  w.next_seq <- w.next_seq + List.length items;
  Queue.push ivar w.outstanding;
  (* Opportunistically reap acks that already arrived, so a long run
     of writes does not hold a window's worth of filled ivars. *)
  while
    match Queue.peek_opt w.outstanding with Some iv -> Ivar.is_filled iv | None -> false
  do
    reap w
  done

(* Deposit everything unacknowledged, stamped with its first position,
   until the consumer acknowledges all of it.  The consumer deduplicates
   by position and acknowledges with the position it expects next, so
   a retried duplicate is harmless; a short acknowledgement (a consumer
   restarted from an older checkpoint) re-deposits the remainder, and
   shrinks an adaptive batch so recovery checkpoints at finer
   granularity while it catches up. *)
let rec send_resumable t r prng ~eos =
  let reply =
    Retry.call ~policy:r.Retry.policy ?meter:r.Retry.meter ~prng t.ctx t.dst
      ~op:Proto.deposit_op
      (t.wrap
         (Proto.deposit_request ~seq:(Window.base t.pend) t.chan ~eos (Window.to_list t.pend)))
  in
  t.deposits <- t.deposits + 1;
  (* A legacy unit acknowledgement accepts everything. *)
  let a = Option.value (Proto.parse_deposit_ack reply) ~default:(Window.next t.pend) in
  t.acked <- max t.acked a;
  Window.trim t.pend a;
  let short = not (Window.is_empty t.pend) in
  (match t.ctrl with Some c -> if short then Aimd.on_stall c else Aimd.on_progress c | None -> ());
  if short then send_resumable t r prng ~eos

let threshold t = match t.ctrl with Some c -> Aimd.current c | None -> t.batch

(* Chunked plane: adjacent pending chunks travel as one coalesced
   chunk.  [Chunk.concat] is zero-copy (new chain over the same
   roots); the push owns what was written to it, so the source handles
   are released here and ownership of the bytes continues downstream
   under the coalesced handle. *)
let coalesce t items =
  match t.chunk_bytes with
  | None -> items
  | Some _ ->
      let all_chunks =
        List.for_all (function Value.Chunk _ -> true | _ -> false) items
      in
      (match items with
      | (Value.Chunk _ :: _ :: _) when all_chunks ->
          let cs = List.map Value.to_chunk items in
          let big = Chunk.concat cs in
          List.iter Chunk.release cs;
          t.chunks_sent <- t.chunks_sent + 1;
          [ Value.Chunk big ]
      | [ Value.Chunk _ ] as one ->
          t.chunks_sent <- t.chunks_sent + 1;
          one
      | items -> items)

(* Deposit what is pending; the final deposit carries [eos] even when
   nothing is. *)
let deposit t ~eos =
  t.pending_bytes <- 0;
  let items () = coalesce t (Window.take t.pend (Window.length t.pend)) in
  match t.mode with
  | Resumable (r, prng) -> send_resumable t r prng ~eos
  | Windowed w -> send_windowed t w ~eos (items ())
  | Sync ->
      let items = items () in
      t.deposits <- t.deposits + 1;
      ignore
        (Kernel.call t.ctx t.dst ~op:Proto.deposit_op
           (t.wrap (Proto.deposit_request t.chan ~eos items)))

let flush t = if not (Window.is_empty t.pend) then deposit t ~eos:false

let write t item =
  if t.closed then failwith "Push.write: closed";
  Window.push t.pend item;
  (* Resumable replay: a restarted producer regenerates positions the
     consumer already acknowledged; trimming to the acknowledgement
     skips them without re-sending. *)
  Window.trim t.pend t.acked;
  match t.chunk_bytes with
  | Some limit ->
      t.pending_bytes <- t.pending_bytes + Value.size item;
      if t.pending_bytes >= limit then flush t
  | None -> if Window.length t.pend >= threshold t then flush t

let close t =
  if not t.closed then begin
    t.closed <- true;
    deposit t ~eos:true;
    match t.mode with
    | Windowed w ->
        (* Drain every ack so a failure cannot vanish with the
           window and the stream is fully accepted on return. *)
        while not (Queue.is_empty w.outstanding) do
          reap w
        done
    | Sync | Resumable _ -> ()
  end

let sink t = t.dst
let channel t = t.chan
let deposits_issued t = t.deposits
let chunks_sent t = t.chunks_sent
let pos t = Window.next t.pend
let pending t = Window.length t.pend
let controller t = t.ctrl
let stalls t = match t.mode with Windowed w -> w.stalls | Sync | Resumable _ -> 0
