(* ro-lines-inproc and ro-lines-unix: the F2 read-only chain.

   A lazy source (capacity 0) feeds trim_trailing -> upcase -> rot13, and
   the bench itself is the sink, reading with [Pull.connect]/[Pull.read]
   under the legacy flow config (one item per Transfer, one credit).
   Three shards with Distpipe's placement: the stages alternate over the
   two leaves and the sink sits on shard 0, so every hop crosses shards.
   The two workloads differ only in the cluster mode. *)

module Value = Eden_kernel.Value
module Kernel = Eden_kernel.Kernel
module Obs = Eden_obs.Obs
module T = Eden_transput
module Flowctl = Eden_flowctl.Flowctl
module Cluster = Eden_par.Cluster

type t = {
  mode : Cluster.mode;
  doc : string array;
  expect : string array;
  shm : Shm.t;
  mutable passes : int;
}

let shard_of stage = 1 + (stage mod 2)

let prepare mode ~seed ~lines =
  let doc = Doc.lines ~seed lines in
  { mode; doc; expect = Doc.oracle doc; shm = Shm.create ~stamps:lines ~ring:16384; passes = 0 }

type built = {
  c : Cluster.t;
  lat : float array;
  waits : float array;
  received : int ref;
  bytes : int ref;
  errors : int ref;
  exchanges : int ref;
  loadgen : float ref;  (** hub side: the sink's checks *)
}

(* Builds the chain over the first [n] lines.  With [traced] the source
   generator and the filters are wrapped (their time goes to the shared
   mapping), filters get flow meters and credit notes are counted. *)
let build t ~n ~traced =
  let shm = t.shm in
  let c = Cluster.create t.mode ~shards:3 () in
  if traced then Meas.count_credit_takes shm c;
  let src_shard = shard_of 0 in
  let next = ref 0 in
  let gen () =
    let i = !next in
    if i >= n then None
    else begin
      let t0 = Clock.now_ns () in
      next := i + 1;
      Shm.stamp shm i t0;
      let v = Value.Str t.doc.(i) in
      if traced then begin
        let t1 = Clock.now_ns () in
        Shm.add shm ~shard:src_shard ~slot:Shm.loadgen ((t1 -. t0) *. 1e-9);
        if Shm.sampled i then
          Shm.span shm ~shard:src_shard ~name:(Shm.span_id "loadgen.gen")
            ~item:(Shm.id_base shm + i) ~t0 ~t1
      end;
      Some v
    end
  in
  let src = T.Stage.source_ro (Cluster.kernel c src_shard) ~name:"source" ~capacity:0 gen in
  let prev =
    List.fold_left
      (fun (j, prev) (label, f) ->
        let shard = shard_of j in
        let k = Cluster.kernel c shard in
        let upstream = Cluster.proxy c ~shard ~ops:[ T.Proto.transfer_op ] ~target:prev in
        let f, flow =
          if traced then
            ( Meas.self_timed shm ~shard ~slot:(Shm.filter j)
                ~name:(Shm.span_id ("filters." ^ label))
                f,
              Some (Obs.register_stage (Kernel.obs k) label) )
          else (f, None)
        in
        let uid =
          T.Stage.filter_ro k ~name:label ~capacity:0 ~flowctl:Flowctl.legacy ?flow ~upstream f
        in
        (j + 1, (shard, uid)))
      (1, (src_shard, src))
      Doc.chain
    |> snd
  in
  let up = Cluster.proxy c ~shard:0 ~ops:[ T.Proto.transfer_op ] ~target:prev in
  let b =
    {
      c;
      lat = Array.make n 0.;
      waits = (if traced then Array.make n 0. else [||]);
      received = ref 0;
      bytes = ref 0;
      errors = ref 0;
      exchanges = ref 0;
      loadgen = ref 0.;
    }
  in
  Cluster.driver c 0 (fun ctx ->
      let p = T.Pull.connect ctx ~flowctl:Flowctl.legacy up in
      let rec go i =
        let t0 = Clock.now_ns () in
        let r = T.Pull.read p in
        let t1 = Clock.now_ns () in
        match r with
        | None -> b.received := i
        | Some v ->
            if i < n then begin
              b.lat.(i) <- (t1 -. Shm.stamped shm i) *. 1e-3;
              match v with
              | Value.Str s when String.equal s t.expect.(i) ->
                  b.bytes := !(b.bytes) + String.length s + 1
              | _ -> incr b.errors
            end
            else incr b.errors;
            if traced && i < n then begin
              b.waits.(i) <- (t1 -. t0) *. 1e-3;
              if Shm.sampled i then
                Shm.span shm ~shard:0 ~name:(Shm.span_id "core.pull_read")
                  ~item:(Shm.id_base shm + i) ~t0 ~t1;
              b.loadgen := !(b.loadgen) +. ((Clock.now_ns () -. t1) *. 1e-9)
            end;
            go (i + 1)
      in
      go 0;
      b.exchanges := T.Pull.transfers_issued p);
  b

let launch t =
  Meas.launch (fun () ->
      let b = build t ~n:1 ~traced:false in
      (b.c, fun () -> !(b.received) = 1 && !(b.errors) = 0))

(* Builds a pass's cluster and returns the run that moves the document,
   so the caller can time exactly that. *)
let pass t ~traced =
  let n = Array.length t.doc in
  let pass = t.passes in
  t.passes <- pass + 1;
  Meas.cluster_pass t.shm ~traced ~pass ~n
    (fun () ->
      let b = build t ~n ~traced in
      (b.c, b))
    (fun p b ->
      {
        p with
        bytes = !(b.bytes);
        errors = !(b.errors) + (n - min n !(b.received));
        lat = b.lat;
        exchanges = !(b.exchanges);
        waits = b.waits;
        loadgen = Shm.get t.shm ~shard:(shard_of 0) ~slot:Shm.loadgen +. !(b.loadgen);
      })
