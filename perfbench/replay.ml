(* Replays of the wire layer's per-frame work at a workload's own item
   size, outside any cluster: Bin encode and decode, Auth seal and open,
   and a Frame write+read round trip over a Unix socketpair.  They split
   the measured wire cost of a run into codec, MAC and syscall parts. *)

module Value = Eden_kernel.Value
module Bin = Eden_wire.Bin
module Frame = Eden_wire.Frame
module Auth = Eden_wire.Auth

type t = {
  encode_ns_per_byte : float;
  decode_ns_per_byte : float;
  seal_ns_per_byte : float;
  open_ns_per_byte : float;
  frame_rtt_us : float;  (** item frame out, small frame back, across processes *)
  item_bytes : int;  (** Bin-encoded size of the replayed item *)
}

let community = Auth.community ~id:0xBE7C4L ~key:"perfbench-key-16"

(* Median over [batches] batches of [reps] calls, in ns per call; each
   batch is recorded as one span. *)
let per_call shm name ~reps ~batches f =
  let id = Shm.span_id name in
  let samples =
    Array.init batches (fun b ->
        let t0 = Clock.now_ns () in
        for _ = 1 to reps do
          f ()
        done;
        let t1 = Clock.now_ns () in
        Shm.span shm ~shard:0 ~name:id ~item:b ~t0 ~t1;
        (t1 -. t0) /. float_of_int reps)
  in
  Stats.median samples

let run shm ~quick item =
  let enc = Bin.encode item in
  let bytes = String.length enc in
  (* About 4 MB of payload per batch, and at least 20 calls. *)
  let reps = if quick then 4 else max 20 (4_000_000 / bytes) in
  let batches = if quick then 3 else 7 in
  let per_byte name f = per_call shm name ~reps ~batches f /. float_of_int bytes in
  let encode =
    per_byte "wire.bin_encode" (fun () -> ignore (Sys.opaque_identity (Bin.encode item)))
  in
  let decode =
    per_byte "wire.bin_decode" (fun () -> ignore (Sys.opaque_identity (Bin.decode enc)))
  in
  let frame = Frame.make ~kind:Frame.Reply ~src:1 ~dst:0 ~seq:1 enc in
  (* Both ends of one session, as the hub and a leaf hold them; opening
     must follow sealing in order, so a batch seals [reps] frames and
     the matching batch opens them. *)
  let token = Auth.mint_token community ~shard:1 ~nonce:7L in
  let tx = Auth.session community ~token and rx = Auth.session community ~token in
  let sealed = Queue.create () in
  let seal = per_byte "wire.auth_seal" (fun () -> Queue.push (Auth.seal tx frame) sealed) in
  let open_ = per_byte "wire.auth_open" (fun () -> ignore (Auth.open_ rx (Queue.pop sealed))) in
  (* One exchange as a cross-shard invocation makes it: the item's frame
     one way, a small frame back.  The far end is a forked process, as a
     leaf is, so the round trip includes waking the reader on each side
     as well as the write and read syscalls. *)
  let ack =
    Frame.make ~kind:Frame.Reply ~src:0 ~dst:1 ~seq:1
      (Bin.encode (Value.List [ Value.Bool true; Value.Unit ]))
  in
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  flush stdout;
  flush stderr;
  let rtt =
    match Unix.fork () with
    | 0 ->
        Unix.close a;
        (try
           while true do
             ignore (Frame.read b);
             Frame.write b ack
           done
         with _ -> ());
        Unix._exit 0
    | pid ->
        Unix.close b;
        Fun.protect
          ~finally:(fun () ->
            Unix.close a;
            ignore (Unix.waitpid [] pid))
          (fun () ->
            per_call shm "wire.frame_rtt" ~reps:(if quick then 4 else 200) ~batches (fun () ->
                Frame.write a frame;
                ignore (Frame.read a)))
  in
  {
    encode_ns_per_byte = encode;
    decode_ns_per_byte = decode;
    seal_ns_per_byte = seal;
    open_ns_per_byte = open_;
    frame_rtt_us = rtt /. 1e3;
    item_bytes = bytes;
  }
