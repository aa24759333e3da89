module Value = Eden_kernel.Value
module Kernel = Eden_kernel.Kernel
module Waitq = Eden_sched.Waitq

type chan_state = {
  chan : Channel.t;
  items : Value.t Queue.t;
  capacity : int;
  mutable eos : bool;
  mutable expected : int; (* next position for seq-stamped deposits *)
  readers : Waitq.t; (* parked [read] callers *)
  writers : Waitq.t; (* parked Deposit handlers *)
  turnstile : Waitq.t; (* parked out-of-order seq-stamped deposits *)
}

type t = { channels : (Channel.t * chan_state) list ref }

type reader = chan_state

let create () = { channels = ref [] }

let add_channel t ?(capacity = 1) chan =
  if capacity < 1 then invalid_arg "Intake.add_channel: capacity must be at least 1";
  if List.exists (fun (c, _) -> Channel.equal c chan) !(t.channels) then
    invalid_arg ("Intake.add_channel: duplicate channel " ^ Channel.to_string chan);
  let s =
    {
      chan;
      items = Queue.create ();
      capacity;
      eos = false;
      expected = 0;
      readers = Waitq.create ("intake " ^ Channel.to_string chan ^ " readers");
      writers = Waitq.create ("intake " ^ Channel.to_string chan ^ " writers");
      turnstile = Waitq.create ("intake " ^ Channel.to_string chan ^ " turnstile");
    }
  in
  t.channels := (chan, s) :: !(t.channels);
  s

let find t chan = List.find_opt (fun (c, _) -> Channel.equal c chan) !(t.channels)

let reader t chan = match find t chan with Some (_, s) -> s | None -> raise Not_found

let rec read s =
  match Queue.take_opt s.items with
  | Some x ->
      ignore (Waitq.wake_one s.writers);
      Some x
  | None ->
      if s.eos then None
      else begin
        Waitq.park s.readers;
        read s
      end

let eos_seen s = s.eos
let buffered s = Queue.length s.items

let rec accept s item =
  if Queue.length s.items < s.capacity then begin
    Queue.push item s.items;
    ignore (Waitq.wake_one s.readers)
  end
  else begin
    (* Buffer full: hold the depositor's reply hostage.  The
       invoker is blocked awaiting it, which is exactly the
       back-pressure the write-only discipline needs. *)
    Waitq.park s.writers;
    accept s item
  end

let finish_eos s eos =
  if eos then begin
    s.eos <- true;
    ignore (Waitq.wake_all s.readers)
  end

let serve_plain s eos items =
  if s.eos then raise (Kernel.Eden_error "Deposit after end of stream");
  List.iter (accept s) items;
  finish_eos s eos;
  Value.Unit

let rec drop n xs = if n <= 0 then xs else match xs with [] -> [] | _ :: r -> drop (n - 1) r

let admit ~expected ~seq items = if seq > expected then None else Some (drop (expected - seq) items)

(* Windowed (seq-stamped) deposits: a pipelining pusher has several
   deposits in flight at once and the network may deliver them out of
   order, so each batch carries the absolute position of its first
   item and waits at the turnstile until the intake has accepted
   everything before it.  A position below [expected] is a protocol
   violation here (a windowed pusher never retries; a resumable one
   deposits into a consumer that applies {!admit}) and errors rather
   than silently double-delivering. *)
let serve_seq s eos items seq =
  let rec await () =
    if s.expected < seq then begin
      Waitq.park s.turnstile;
      await ()
    end
  in
  await ();
  if s.expected > seq then
    raise
      (Kernel.Eden_error (Printf.sprintf "stale Deposit seq %d (expected %d)" seq s.expected));
  if s.eos then raise (Kernel.Eden_error "Deposit after end of stream");
  List.iter (accept s) items;
  s.expected <- s.expected + List.length items;
  finish_eos s eos;
  ignore (Waitq.wake_all s.turnstile);
  Proto.deposit_ack ~next_seq:s.expected

let serve_deposit t arg =
  let chan, eos, items, seq = Proto.parse_deposit_request_seq arg in
  match find t chan with
  | None -> raise (Kernel.Eden_error ("no such channel: " ^ Channel.to_string chan))
  | Some (_, s) -> (
      match seq with None -> serve_plain s eos items | Some seq -> serve_seq s eos items seq)

let handlers t = [ (Proto.deposit_op, serve_deposit t) ]
