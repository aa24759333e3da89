(* wo-chunks-auth: the write-only chain on the chunked plane.

   A bench driver on the hub cuts the seeded document into chunks and
   writes them with [Push.write] under the chunked flow config with a
   window of 4 credits; chunked trim_trailing -> upcase -> rot13 run on
   the leaves and a [sink_wo] on the hub checks every byte.  The default
   mode is the authenticated Unix wire; the traced run also runs the
   same chain in process and over the plain wire to attribute the
   difference.

   The coalescing threshold (16 KiB) is below the smallest chunk the cut
   or any filter produces, so every chunk travels in its own Deposit and
   the invocation count depends only on the number of chunks. *)

module Value = Eden_kernel.Value
module Kernel = Eden_kernel.Kernel
module Obs = Eden_obs.Obs
module T = Eden_transput
module Flowctl = Eden_flowctl.Flowctl
module Credit = Eden_flowctl.Credit
module Chunk = Eden_chunk.Chunk
module Cluster = Eden_par.Cluster

let flowctl = Flowctl.chunked ~credit:(Credit.Window 4) ~chunk_bytes:16384 ()
let capacity = 4

type t = { doc : Doc.cut_doc; shm : Shm.t; mutable passes : int }

let prepare ~seed ~bytes ~cut =
  let doc = Doc.cut_doc ~seed ~bytes ~cut in
  { doc; shm = Shm.create ~stamps:0 ~ring:16384; passes = 0 }

let shard_of stage = 1 + (stage mod 2)

type built = {
  c : Cluster.t;
  created : float array;  (** ns: when the driver made each input chunk *)
  lat : float array;
  waits : float array;
  completed : int ref;  (** input chunks whose last line reached the sink *)
  bytes : int ref;
  errors : int ref;
  sink_chunks : int ref;
  eos : int ref;
  exchanges : int ref;
  stalls : int ref;
  loadgen : float ref;
}

(* Compares [s] with [expect] at [off] and counts its newlines. *)
let check expect off s =
  let n = String.length s in
  let ok = off + n <= String.length expect in
  let ok = ref ok and nl = ref 0 in
  for i = 0 to n - 1 do
    let c = String.unsafe_get s i in
    if c = '\n' then incr nl;
    if !ok && c <> String.unsafe_get expect (off + i) then ok := false
  done;
  (!ok, !nl)

let build t mode ~traced =
  let shm = t.shm and d = t.doc in
  let n = Array.length d.Doc.cuts in
  let c = Cluster.create mode ~shards:3 () in
  if traced then Meas.count_credit_takes shm c;
  let b =
    {
      c;
      created = Array.make n 0.;
      lat = Array.make n 0.;
      waits = (if traced then Array.make (n + 1) 0. else [||]);
      completed = ref 0;
      bytes = ref 0;
      errors = ref 0;
      sink_chunks = ref 0;
      eos = ref 0;
      exchanges = ref 0;
      stalls = ref 0;
      loadgen = ref 0.;
    }
  in
  let k0 = Cluster.kernel c 0 in
  let lines_seen = ref 0 in
  let consume v =
    let t0 = Clock.now_ns () in
    (match v with
    | Value.Chunk ch ->
        incr b.sink_chunks;
        let s = Chunk.to_string ch in
        Chunk.release ch;
        let ok, nl = check d.Doc.expect !(b.bytes) s in
        b.bytes := !(b.bytes) + String.length s;
        lines_seen := !lines_seen + nl;
        while !(b.completed) < n && !lines_seen >= d.Doc.lines_through.(!(b.completed)) do
          let i = !(b.completed) in
          b.lat.(i) <- (t0 -. b.created.(i)) *. 1e-3;
          if not ok then incr b.errors;
          incr b.completed
        done
    | _ -> incr b.errors);
    if traced then b.loadgen := !(b.loadgen) +. ((Clock.now_ns () -. t0) *. 1e-9)
  in
  let sink = T.Stage.sink_wo k0 ~name:"sink" ~capacity ~on_done:(fun () -> incr b.eos) consume in
  (* Write-only stages hold their downstream's UID, so the chain is
     built from the sink back to the driver. *)
  let first =
    List.fold_left
      (fun (j, next) (label, f) ->
        let shard = shard_of j in
        let k = Cluster.kernel c shard in
        let downstream = Cluster.proxy c ~shard ~ops:[ T.Proto.deposit_op ] ~target:next in
        let f, flow =
          if traced then
            ( Meas.self_timed shm ~shard ~slot:(Shm.filter j)
                ~name:(Shm.span_id ("filters." ^ label))
                f,
              Some (Obs.register_stage (Kernel.obs k) label) )
          else (f, None)
        in
        (j - 1, (shard, T.Stage.filter_wo k ~name:label ~capacity ~flowctl ?flow ~downstream f)))
      (3, (0, sink))
      (List.rev Doc.chunked_chain)
    |> snd
  in
  let up = Cluster.proxy c ~shard:0 ~ops:[ T.Proto.deposit_op ] ~target:first in
  Cluster.driver c 0 (fun ctx ->
      let p = T.Push.connect ctx ~flowctl up in
      let push_write i f =
        let t0 = Clock.now_ns () in
        f ();
        if traced then begin
          let t1 = Clock.now_ns () in
          b.waits.(i) <- (t1 -. t0) *. 1e-3;
          if i < n && Shm.sampled i then
            Shm.span shm ~shard:0 ~name:(Shm.span_id "core.push_write")
              ~item:(Shm.id_base shm + i) ~t0 ~t1
        end
      in
      Array.iteri
        (fun i (pos, len) ->
          let t0 = Clock.now_ns () in
          b.created.(i) <- t0;
          let ch = Chunk.of_substring d.Doc.text ~pos ~len in
          if traced then begin
            let t1 = Clock.now_ns () in
            b.loadgen := !(b.loadgen) +. ((t1 -. t0) *. 1e-9);
            if Shm.sampled i then
              Shm.span shm ~shard:0 ~name:(Shm.span_id "loadgen.gen")
                ~item:(Shm.id_base shm + i) ~t0 ~t1
          end;
          push_write i (fun () -> T.Push.write p (Value.Chunk ch)))
        d.Doc.cuts;
      push_write n (fun () -> T.Push.close p);
      b.exchanges := T.Push.deposits_issued p;
      b.stalls := T.Push.stalls p);
  b

(* The one-line document of a set-up launch. *)
let launch_doc =
  { Doc.text = "one line\n"; cuts = [| (0, 9) |]; lines_through = [| 1 |]; expect = "BAR YVAR\n" }

let launch t mode =
  Meas.launch (fun () ->
      let b = build { t with doc = launch_doc } mode ~traced:false in
      (b.c, fun () -> !(b.completed) = 1 && !(b.errors) = 0))

(* Builds a pass's cluster and returns the run that moves the document,
   so the caller can time exactly that. *)
let pass t mode ~traced =
  let n = Array.length t.doc.Doc.cuts in
  let pass = t.passes in
  t.passes <- pass + 1;
  Meas.cluster_pass t.shm ~traced ~pass ~n
    (fun () ->
      let b = build t mode ~traced in
      (b.c, b))
    (fun p b ->
      let complete = !(b.bytes) = String.length t.doc.Doc.expect && !(b.eos) = 1 in
      {
        p with
        bytes = !(b.bytes);
        errors = !(b.errors) + (n - !(b.completed)) + (if complete then 0 else 1);
        lat = b.lat;
        exchanges = !(b.exchanges);
        stalls = !(b.stalls);
        waits = b.waits;
        loadgen = !(b.loadgen);
        sink_chunks = !(b.sink_chunks);
        hub_wire_chunks = (match mode with Cluster.Wire _ -> n | _ -> 0);
      })
