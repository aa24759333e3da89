module Value = Eden_kernel.Value
module Kernel = Eden_kernel.Kernel
module Waitq = Eden_sched.Waitq

type chan_state = {
  chan : Channel.t;
  win : Value.t Window.t; (* plain: written, unserved items; retaining:
                             every item not yet acknowledged *)
  capacity : int;
  retain : bool;
  mutable closed : bool;
  mutable demand : int; (* plain: outstanding, unserved Transfer credit *)
  mutable horizon : int; (* retaining: highest seq + credit requested *)
  readers : Waitq.t; (* parked plain Transfer handlers *)
  writers : Waitq.t; (* parked [write] callers *)
  turnstile : Waitq.t; (* parked seq-stamped Transfer handlers *)
}

type t = { channels : (Channel.t * chan_state) list ref }

type writer = chan_state

let create () = { channels = ref [] }

let add_channel t ?(capacity = 0) ?(retain = false) chan =
  if capacity < 0 then invalid_arg "Port.add_channel: negative capacity";
  if List.exists (fun (c, _) -> Channel.equal c chan) !(t.channels) then
    invalid_arg ("Port.add_channel: duplicate channel " ^ Channel.to_string chan);
  let s =
    {
      chan;
      win = Window.create ();
      capacity;
      retain;
      closed = false;
      demand = 0;
      horizon = 0;
      readers = Waitq.create ("port " ^ Channel.to_string chan ^ " readers");
      writers = Waitq.create ("port " ^ Channel.to_string chan ^ " writers");
      turnstile = Waitq.create ("port " ^ Channel.to_string chan ^ " turnstile");
    }
  in
  t.channels := (chan, s) :: !(t.channels);
  s

let find t chan = List.find_opt (fun (c, _) -> Channel.equal c chan) !(t.channels)

let writer t chan = match find t chan with Some (_, s) -> s | None -> raise Not_found

(* Production may run [capacity] positions past demand: on a plain
   channel, the unserved credit beyond the oldest item held; on a
   retaining channel, whose items stay until acknowledged, the highest
   position requested. *)
let demanded s = if s.retain then s.horizon else Window.base s.win + s.demand
let room s = Window.next s.win < demanded s + s.capacity

let rec write s item =
  if s.closed then failwith "Port.write: channel closed";
  if room s then begin
    Window.push s.win item;
    ignore (Waitq.wake_one s.readers);
    ignore (Waitq.wake_all s.turnstile)
  end
  else begin
    Waitq.park s.writers;
    write s item
  end

let close s =
  if not s.closed then begin
    s.closed <- true;
    ignore (Waitq.wake_all s.readers);
    ignore (Waitq.wake_all s.turnstile)
  end

let wanted s = if s.retain then s.horizon > Window.next s.win else s.demand > 0

let rec await_demand s =
  if not (wanted s || s.closed) then begin
    Waitq.park s.writers;
    await_demand s
  end

let rec await_writable s =
  if (not s.closed) && not (room s) then begin
    Waitq.park s.writers;
    await_writable s
  end

let is_closed s = s.closed
let buffered s = Window.length s.win
let cursor s = Window.base s.win

let encode s =
  Value.List [ Value.Int (Window.base s.win); Value.List (Window.to_list s.win); Value.Bool s.closed ]

let load s = function
  | Value.List [ Value.Int b; Value.List items; Value.Bool closed ] ->
      Window.reset s.win ~base:b items;
      s.closed <- closed;
      (* Demand is volatile: it rebuilds from the consumer's retried
         requests, so restart un-demanded. *)
      s.horizon <- b
  | v -> raise (Value.Protocol_error ("malformed Port state: " ^ Value.to_string v))

let refuse fmt = Printf.ksprintf (fun msg -> raise (Kernel.Eden_error msg)) fmt

(* Plain rendezvous serving: reply as soon as anything is buffered. *)
let serve_plain s credit =
  s.demand <- s.demand + credit;
  (* New demand may unblock a lazy writer. *)
  ignore (Waitq.wake_all s.writers);
  let rec await () =
    if Window.is_empty s.win && not s.closed then begin
      Waitq.park s.readers;
      await ()
    end
  in
  await ();
  let items = Window.take s.win credit in
  s.demand <- max 0 (s.demand - credit);
  (* Space freed (and demand gone): let the writer reassess. *)
  ignore (Waitq.wake_all s.writers);
  let eos = s.closed && Window.is_empty s.win in
  Proto.transfer_reply { Proto.eos; items }

(* Exact-fill serving for windowed (seq-stamped) transfers on a plain
   channel.

   A pipelining client issues several transfers before seeing any
   reply, computing each request's start position from the credits it
   asked for earlier.  Those positions are only contiguous if every
   non-final reply carries exactly its full credit, so a seq-stamped
   request waits at the turnstile until it is the request for the
   current cursor AND either [credit] items are buffered or the stream
   has closed.  A short reply therefore implies end of stream, and
   speculative requests landing past the end are released with an
   empty eos reply.  Requests may also arrive out of order (the
   network can reorder); the turnstile holds them until the cursor
   catches up.

   A request for a position already served is refused before it adds
   demand, and one that turns stale while parked takes its credit back:
   demand nobody will consume would let a lazy source compute items
   nobody asked for. *)
let serve_exact s credit seq =
  let stale () = refuse "stale Transfer seq %d (cursor %d)" seq (Window.base s.win) in
  if Window.base s.win > seq then stale ();
  s.demand <- s.demand + credit;
  ignore (Waitq.wake_all s.writers);
  let fillable () =
    let cursor = Window.base s.win and n = Window.length s.win in
    (cursor = seq && (n >= credit || s.closed)) || (s.closed && cursor + n <= seq)
  in
  let rec await () =
    if Window.base s.win > seq then begin
      s.demand <- s.demand - credit;
      stale ()
    end;
    if not (fillable ()) then begin
      Waitq.park s.turnstile;
      await ()
    end
  in
  await ();
  if s.closed && Window.next s.win <= seq && Window.base s.win <> seq then begin
    (* Speculative overshoot past end of stream. *)
    s.demand <- max 0 (s.demand - credit);
    ignore (Waitq.wake_all s.writers);
    Proto.transfer_reply ~base:seq { Proto.eos = true; items = [] }
  end
  else begin
    let items = Window.take s.win credit in
    s.demand <- max 0 (s.demand - credit);
    ignore (Waitq.wake_all s.writers);
    ignore (Waitq.wake_all s.turnstile);
    let eos = s.closed && Window.is_empty s.win in
    Proto.transfer_reply ~base:seq { Proto.eos; items }
  end

(* Retaining serving: a request for [seq, seq + credit) acknowledges
   everything below [seq] and replies with whatever the window holds
   from [seq] on, without discarding it — a retried duplicate parks
   alongside and both are served when items appear.  A window restored
   behind the consumer parks the request while the owner regenerates
   the gap, each regenerated item trimmed as it lands. *)
let serve_retained s credit seq =
  if seq < Window.base s.win then
    refuse "Transfer at %d below acknowledged position %d" seq (Window.base s.win);
  s.horizon <- max s.horizon (seq + credit);
  ignore (Waitq.wake_all s.writers);
  let rec await () =
    Window.trim s.win seq;
    let ready =
      (Window.base s.win = seq && ((not (Window.is_empty s.win)) || s.closed))
      || (s.closed && Window.next s.win <= seq)
    in
    if not ready then begin
      Waitq.park s.turnstile;
      await ()
    end
  in
  await ();
  let items = Window.sub s.win seq credit in
  (items, s.closed && seq + List.length items >= Window.next s.win)

(* Serve one Transfer request.  Runs as an invocation handler inside a
   worker fiber, so parking here blocks only this request. *)
let serve_transfer t arg =
  let chan, credit, seq = Proto.parse_transfer_request_seq arg in
  match find t chan with
  | None -> refuse "no such channel: %s" (Channel.to_string chan)
  | Some (_, s) -> (
      match (s.retain, seq) with
      | false, None -> serve_plain s credit
      | false, Some seq -> serve_exact s credit seq
      | true, Some seq ->
          let items, eos = serve_retained s credit seq in
          Proto.transfer_reply ~base:seq { Proto.eos; items }
      | true, None ->
          (* An un-stamped request reads from the oldest position held
             and acknowledges what it got: the plain contract. *)
          let seq = Window.base s.win in
          let items, eos = serve_retained s credit seq in
          Window.trim s.win (seq + List.length items);
          Proto.transfer_reply { Proto.eos; items })

let handlers t = [ (Proto.transfer_op, serve_transfer t) ]
