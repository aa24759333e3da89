(* Kernel semantics: invocation, activation, checkpoint/crash/recovery,
   destruction, metering. *)

open Eden_kernel

let check = Alcotest.check

(* An echo Eject: replies with its argument; also counts calls in a
   shared cell so tests can observe handler execution. *)
let echo_behaviour ?(calls = ref 0) () _ctx ~passive:_ =
  [
    ( "Echo",
      fun arg ->
        incr calls;
        arg );
    ("Fail", fun _ -> raise (Kernel.Eden_error "deliberate"));
    ("Explode", fun _ -> raise (Value.Protocol_error "bad shape"));
  ]

let test_invoke_echo () =
  let k = Kernel.create () in
  let uid = Kernel.create_eject k ~type_name:"echo" (echo_behaviour ()) in
  let result = ref None in
  Kernel.run_driver k (fun ctx ->
      result := Some (Kernel.invoke ctx uid ~op:"Echo" (Value.Str "hi")));
  match !result with
  | Some (Ok (Value.Str "hi")) -> ()
  | _ -> Alcotest.fail "expected Ok hi"

let test_invoke_error_reply () =
  let k = Kernel.create () in
  let uid = Kernel.create_eject k ~type_name:"echo" (echo_behaviour ()) in
  let result = ref None in
  Kernel.run_driver k (fun ctx -> result := Some (Kernel.invoke ctx uid ~op:"Fail" Value.Unit));
  check Alcotest.(option (result reject string)) "error text"
    (Some (Error "deliberate"))
    (match !result with Some (Error e) -> Some (Error e) | _ -> None)

let test_invoke_unknown_op () =
  let k = Kernel.create () in
  let uid = Kernel.create_eject k ~type_name:"echo" (echo_behaviour ()) in
  let result = ref None in
  Kernel.run_driver k (fun ctx -> result := Some (Kernel.invoke ctx uid ~op:"Nope" Value.Unit));
  match !result with
  | Some (Error msg) -> Alcotest.(check bool) "names op" true (String.length msg > 0)
  | _ -> Alcotest.fail "expected error"

let test_invoke_no_such_eject () =
  let k = Kernel.create () in
  (* Mint a UID by creating and never registering: use a second kernel's
     eject so the UID is foreign to [k]. *)
  let other = Kernel.create ~seed:99L () in
  let foreign = Kernel.create_eject other ~type_name:"x" (echo_behaviour ()) in
  let result = ref None in
  Kernel.run_driver k (fun ctx ->
      result := Some (Kernel.invoke ctx foreign ~op:"Echo" Value.Unit));
  match !result with
  | Some (Error "no such eject") -> ()
  | _ -> Alcotest.fail "expected no such eject"

let test_protocol_error_becomes_reply () =
  let k = Kernel.create () in
  let uid = Kernel.create_eject k ~type_name:"echo" (echo_behaviour ()) in
  let result = ref None in
  Kernel.run_driver k (fun ctx ->
      result := Some (Kernel.invoke ctx uid ~op:"Explode" Value.Unit));
  match !result with
  | Some (Error msg) ->
      Alcotest.(check bool) "mentions protocol" true
        (Eden_util.Text.contains_sub ~sub:"protocol" msg)
  | _ -> Alcotest.fail "expected protocol error reply"

let test_call_raises_on_error () =
  let k = Kernel.create () in
  let uid = Kernel.create_eject k ~type_name:"echo" (echo_behaviour ()) in
  let raised = ref false in
  Kernel.run_driver k (fun ctx ->
      try ignore (Kernel.call ctx uid ~op:"Fail" Value.Unit)
      with Kernel.Eden_error "deliberate" -> raised := true);
  Alcotest.(check bool) "raised" true !raised

let test_lazy_activation () =
  let k = Kernel.create () in
  let uid = Kernel.create_eject k ~type_name:"echo" (echo_behaviour ()) in
  Alcotest.(check bool) "passive before" false (Kernel.is_active k uid);
  Kernel.run_driver k (fun ctx -> ignore (Kernel.invoke ctx uid ~op:"Echo" Value.Unit));
  Alcotest.(check bool) "active after" true (Kernel.is_active k uid);
  check Alcotest.int "one activation" 1 (Kernel.Meter.snapshot k).Kernel.Meter.activations

let test_invoke_async_overlap () =
  (* Two async invocations to two Ejects overlap in virtual time: total
     elapsed is one round trip, not two. *)
  let latency = 1.0 in
  let k = Kernel.create ~latency:(Eden_net.Net.Fixed latency) () in
  let a = Kernel.create_eject k ~type_name:"a" (echo_behaviour ()) in
  let b = Kernel.create_eject k ~type_name:"b" (echo_behaviour ()) in
  let elapsed = ref 0.0 in
  Kernel.run_driver k (fun ctx ->
      let t0 = Eden_sched.Sched.time () in
      let ra = Kernel.invoke_async ctx a ~op:"Echo" (Value.Int 1) in
      let rb = Kernel.invoke_async ctx b ~op:"Echo" (Value.Int 2) in
      ignore (Eden_sched.Ivar.read ra);
      ignore (Eden_sched.Ivar.read rb);
      elapsed := Eden_sched.Sched.time () -. t0);
  (* Same node: request and reply each take local latency = latency/10.
     Overlapped, both complete in ~one round trip. *)
  Alcotest.(check bool) "overlapped" true (!elapsed < 2.0 *. (2.0 *. latency /. 10.0) -. 1e-9 +. 0.3)

let test_serial_dispatch_ordering () =
  let k = Kernel.create () in
  let log = ref [] in
  let uid =
    Kernel.create_eject k ~type_name:"logger" (fun _ctx ~passive:_ ->
        [
          ( "Log",
            fun arg ->
              log := Value.to_int arg :: !log;
              Value.Unit );
        ])
  in
  Kernel.run_driver k (fun ctx ->
      let ivars =
        List.map (fun i -> Kernel.invoke_async ctx uid ~op:"Log" (Value.Int i)) [ 1; 2; 3; 4 ]
      in
      List.iter (fun iv -> ignore (Eden_sched.Ivar.read iv)) ivars);
  check Alcotest.(list int) "serial order" [ 1; 2; 3; 4 ] (List.rev !log)

let test_checkpoint_crash_recover () =
  let k = Kernel.create () in
  (* A counter that checkpoints every increment. *)
  let uid =
    Kernel.create_eject k ~type_name:"counter" (fun ctx ~passive ->
        let count = ref (match passive with Some v -> Value.to_int v | None -> 0) in
        [
          ( "Incr",
            fun _ ->
              incr count;
              Kernel.checkpoint ctx (Value.Int !count);
              Value.Int !count );
          ("Get", fun _ -> Value.Int !count);
        ])
  in
  let after_crash = ref (-1) in
  Kernel.run_driver k (fun ctx ->
      for _ = 1 to 3 do
        ignore (Kernel.call ctx uid ~op:"Incr" Value.Unit)
      done;
      Kernel.crash k uid;
      after_crash := Value.to_int (Kernel.call ctx uid ~op:"Get" Value.Unit));
  check Alcotest.int "state recovered from checkpoint" 3 !after_crash;
  check Alcotest.int "crash metered" 1 (Kernel.Meter.snapshot k).Kernel.Meter.crashes;
  check Alcotest.int "two activations" 2 (Kernel.Meter.snapshot k).Kernel.Meter.activations

let test_crash_without_checkpoint_resets () =
  let k = Kernel.create () in
  let uid =
    Kernel.create_eject k ~type_name:"counter" (fun _ctx ~passive ->
        let count = ref (match passive with Some v -> Value.to_int v | None -> 0) in
        [
          ( "Incr",
            fun _ ->
              incr count;
              Value.Int !count );
        ])
  in
  let second = ref (-1) in
  Kernel.run_driver k (fun ctx ->
      ignore (Kernel.call ctx uid ~op:"Incr" Value.Unit);
      ignore (Kernel.call ctx uid ~op:"Incr" Value.Unit);
      Kernel.crash k uid;
      second := Value.to_int (Kernel.call ctx uid ~op:"Incr" Value.Unit));
  check Alcotest.int "volatile state lost" 1 !second

let test_checkpoint_history () =
  let k = Kernel.create () in
  let uid =
    Kernel.create_eject k ~type_name:"ckpt" (fun ctx ~passive:_ ->
        [
          ( "Save",
            fun arg ->
              Kernel.checkpoint ctx arg;
              Value.Unit );
        ])
  in
  Kernel.run_driver k (fun ctx ->
      ignore (Kernel.call ctx uid ~op:"Save" (Value.Str "v1"));
      ignore (Kernel.call ctx uid ~op:"Save" (Value.Str "v2")));
  let versions = List.map snd (Kernel.checkpoints k uid) in
  check Alcotest.(list string) "newest first" [ "v2"; "v1" ] (List.map Value.to_str versions)

let test_destroy () =
  let k = Kernel.create () in
  let uid =
    Kernel.create_eject k ~type_name:"ephemeral" (fun ctx ~passive:_ ->
        [
          ( "Vanish",
            fun _ ->
              Kernel.destroy ctx;
              Value.Unit );
        ])
  in
  let second = ref None in
  Kernel.run_driver k (fun ctx ->
      ignore (Kernel.call ctx uid ~op:"Vanish" Value.Unit);
      second := Some (Kernel.invoke ctx uid ~op:"Vanish" Value.Unit));
  Alcotest.(check bool) "gone" false (Kernel.exists k uid);
  (match !second with
  | Some (Error "no such eject") -> ()
  | _ -> Alcotest.fail "expected no such eject after destroy");
  check Alcotest.int "live count dropped" 0 (Kernel.live_ejects k)

let test_deactivate_then_reactivate () =
  let k = Kernel.create () in
  let activations = ref 0 in
  let uid =
    Kernel.create_eject k ~type_name:"napper" (fun ctx ~passive:_ ->
        incr activations;
        [
          ( "Nap",
            fun _ ->
              Kernel.deactivate ctx;
              Value.Unit );
          ("Ping", fun _ -> Value.Str "pong");
        ])
  in
  let pong = ref "" in
  Kernel.run_driver k (fun ctx ->
      ignore (Kernel.call ctx uid ~op:"Nap" Value.Unit);
      (* Allow the deactivation to complete before re-invoking. *)
      Eden_sched.Sched.sleep 1.0;
      pong := Value.to_str (Kernel.call ctx uid ~op:"Ping" Value.Unit));
  check Alcotest.string "reactivated" "pong" !pong;
  check Alcotest.int "behaviour rebuilt" 2 !activations

let test_deactivate_drops_pending_invocations () =
  (* Documented semantics: deactivation is for idle Ejects; invocations
     still queued behind the deactivating one are dropped (their
     invokers can protect themselves with timeouts), while invocations
     arriving after reactivation work normally. *)
  let k = Kernel.create () in
  let uid =
    Kernel.create_eject k ~type_name:"napper" (fun ctx ~passive:_ ->
        [
          ( "Nap",
            fun _ ->
              (* Slow enough that the Ping is already queued when the
                 deactivation takes effect. *)
              Eden_sched.Sched.sleep 5.0;
              Kernel.deactivate ctx;
              Value.Unit );
          ("Ping", fun _ -> Value.Str "pong");
        ])
  in
  let queued = ref (Some (Ok Value.Unit)) and later = ref None in
  Kernel.run_driver k (fun ctx ->
      (* Fire Nap and a Ping back to back: the Ping queues behind the
         deactivation. *)
      let nap = Kernel.invoke_async ctx uid ~op:"Nap" Value.Unit in
      let ping = Kernel.invoke_async ctx uid ~op:"Ping" Value.Unit in
      ignore (Eden_sched.Ivar.read nap);
      queued := Eden_sched.Ivar.read_timeout (Kernel.sched k) ping 50.0;
      (* A fresh invocation reactivates and succeeds. *)
      later := Kernel.invoke_timeout ctx uid ~op:"Ping" Value.Unit ~timeout:50.0);
  Alcotest.(check bool) "queued ping lost (timed out)" true (!queued = None);
  Alcotest.(check bool) "post-reactivation ping works" true (!later = Some (Ok (Value.Str "pong")))

let test_invoke_timeout_on_crashed_target () =
  let k = Kernel.create () in
  let uid =
    Kernel.create_eject k ~type_name:"slow" (fun _ctx ~passive:_ ->
        [
          ( "Slow",
            fun _ ->
              Eden_sched.Sched.sleep 100.0;
              Value.Unit );
        ])
  in
  let got = ref (Some (Ok Value.Unit)) in
  Kernel.run_driver k (fun ctx ->
      (* Fire the invocation, crash the target mid-service, expect a
         timeout rather than a reply. *)
      let iv = Kernel.invoke_async ctx uid ~op:"Slow" Value.Unit in
      Eden_sched.Sched.sleep 5.0;
      Kernel.crash k uid;
      got := Eden_sched.Ivar.read_timeout (Kernel.sched k) iv 50.0);
  check Alcotest.(option (result unit string)) "timed out" None
    (match !got with
    | None -> None
    | Some (Ok _) -> Some (Ok ())
    | Some (Error e) -> Some (Error e))

let test_partition_blocks_invocation () =
  let k = Kernel.create ~nodes:[ "a"; "b" ] () in
  let nodes = Kernel.nodes k in
  let na, nb = (List.nth nodes 0, List.nth nodes 1) in
  let uid = Kernel.create_eject k ~node:nb ~type_name:"echo" (echo_behaviour ()) in
  let first = ref None and second = ref None in
  Kernel.run_driver k (fun ctx ->
      Eden_net.Net.partition (Kernel.net k) na nb;
      first := Kernel.invoke_timeout ctx uid ~op:"Echo" Value.Unit ~timeout:10.0;
      Eden_net.Net.heal (Kernel.net k) na nb;
      second := Kernel.invoke_timeout ctx uid ~op:"Echo" Value.Unit ~timeout:10.0);
  Alcotest.(check bool) "partitioned call lost" true (!first = None);
  Alcotest.(check bool) "healed call succeeds" true (!second = Some (Ok Value.Unit))

let test_meter_counts_invocations () =
  let k = Kernel.create () in
  let uid = Kernel.create_eject k ~type_name:"echo" (echo_behaviour ()) in
  let before = Kernel.Meter.snapshot k in
  Kernel.run_driver k (fun ctx ->
      for i = 1 to 5 do
        ignore (Kernel.call ctx uid ~op:"Echo" (Value.Int i))
      done);
  let d = Kernel.Meter.diff (Kernel.Meter.snapshot k) before in
  check Alcotest.int "five invocations" 5 d.Kernel.Meter.invocations;
  check Alcotest.int "five replies" 5 d.Kernel.Meter.replies

let test_op_counts () =
  let k = Kernel.create () in
  let uid = Kernel.create_eject k ~type_name:"echo" (echo_behaviour ()) in
  Kernel.run_driver k (fun ctx ->
      ignore (Kernel.call ctx uid ~op:"Echo" Value.Unit);
      ignore (Kernel.call ctx uid ~op:"Echo" Value.Unit);
      ignore (Kernel.invoke ctx uid ~op:"Fail" Value.Unit));
  check
    Alcotest.(list (pair string int))
    "per-op tally"
    [ ("Echo", 2); ("Fail", 1) ]
    (Kernel.op_counts k)

let test_poke_activates_without_invocation () =
  let k = Kernel.create () in
  let worker_ran = ref false in
  let uid =
    Kernel.create_eject k ~type_name:"pump" (fun ctx ~passive:_ ->
        Kernel.spawn_worker ctx (fun () -> worker_ran := true);
        [])
  in
  Kernel.poke k uid;
  Kernel.run k;
  Alcotest.(check bool) "worker ran" true !worker_ran;
  check Alcotest.int "no invocations" 0 (Kernel.Meter.snapshot k).Kernel.Meter.invocations

let test_ejects_between_nodes () =
  let k = Kernel.create ~nodes:[ "a"; "b"; "c" ] () in
  let nodes = Kernel.nodes k in
  check Alcotest.int "three nodes" 3 (List.length nodes);
  let uid = Kernel.create_eject k ~node:(List.nth nodes 2) ~type_name:"echo" (echo_behaviour ()) in
  let ok = ref false in
  Kernel.run_driver k (fun ctx ->
      ok := Kernel.invoke ctx uid ~op:"Echo" Value.Unit = Ok Value.Unit);
  Alcotest.(check bool) "cross-node invocation" true !ok

let test_value_roundtrips () =
  let open Value in
  check Alcotest.int "int" 42 (to_int (int 42));
  check Alcotest.string "str" "x" (to_str (str "x"));
  Alcotest.(check bool) "bool" true (to_bool (bool true));
  check (Alcotest.float 1e-9) "float" 1.5 (to_float (float 1.5));
  to_unit unit;
  let a, b = to_pair (pair (int 1) (str "s")) in
  Alcotest.(check bool) "pair" true (equal a (int 1) && equal b (str "s"));
  Alcotest.(check bool) "list" true (equal (list [ int 1 ]) (list [ int 1 ]));
  Alcotest.(check bool) "inequal" false (equal (int 1) (str "1"))

let test_value_accessor_errors () =
  Alcotest.(check bool) "wrong shape raises" true
    (try
       ignore (Value.to_int (Value.Str "x"));
       false
     with Value.Protocol_error _ -> true)

let test_value_size_monotone () =
  Alcotest.(check bool) "longer string bigger" true
    (Value.size (Value.Str "aaaa") > Value.size (Value.Str "a"));
  Alcotest.(check bool) "list overhead" true
    (Value.size (Value.List [ Value.Int 1 ]) > Value.size (Value.Int 1))

let test_uid_uniqueness () =
  let g = Uid.generator ~seed:1L in
  let a = Uid.fresh g and b = Uid.fresh g in
  Alcotest.(check bool) "distinct" false (Uid.equal a b);
  Alcotest.(check bool) "self equal" true (Uid.equal a a);
  Alcotest.(check bool) "ordering antisym" true (Uid.compare a b = -Uid.compare b a)

let test_uid_collections () =
  let g = Uid.generator ~seed:9L in
  let uids = List.init 20 (fun _ -> Uid.fresh g) in
  let set = List.fold_left (fun s u -> Uid.Set.add u s) Uid.Set.empty uids in
  check Alcotest.int "set holds all" 20 (Uid.Set.cardinal set);
  let map =
    List.fold_left (fun m (i, u) -> Uid.Map.add u i m) Uid.Map.empty
      (List.mapi (fun i u -> (i, u)) uids)
  in
  check Alcotest.int "map lookup" 7 (Uid.Map.find (List.nth uids 7) map);
  let tbl = Uid.Tbl.create 8 in
  List.iteri (fun i u -> Uid.Tbl.replace tbl u i) uids;
  check Alcotest.(option int) "tbl lookup" (Some 3) (Uid.Tbl.find_opt tbl (List.nth uids 3))

let test_value_pp_shapes () =
  let g = Uid.generator ~seed:2L in
  let v =
    Value.List [ Value.Unit; Value.Bool true; Value.Int 3; Value.Float 1.5;
                 Value.Str "s"; Value.Uid (Uid.fresh g) ]
  in
  let s = Value.to_string v in
  List.iter
    (fun sub -> Alcotest.(check bool) ("contains " ^ sub) true (Eden_util.Text.contains_sub ~sub s))
    [ "()"; "true"; "3"; "1.5"; "\"s\""; "E#" ]

let test_mint_is_fresh () =
  let k = Kernel.create () in
  let minted = ref [] in
  let uid =
    Kernel.create_eject k ~type_name:"minter" (fun ctx ~passive:_ ->
        [
          ( "Mint",
            fun _ ->
              let u = Kernel.mint ctx in
              minted := u :: !minted;
              Value.Uid u );
        ])
  in
  Kernel.run_driver k (fun ctx ->
      for _ = 1 to 5 do
        ignore (Kernel.call ctx uid ~op:"Mint" Value.Unit)
      done);
  let set = List.fold_left (fun s u -> Uid.Set.add u s) Uid.Set.empty !minted in
  check Alcotest.int "all distinct" 5 (Uid.Set.cardinal set);
  (* Minted tokens name no Eject. *)
  List.iter (fun u -> Alcotest.(check bool) "not an eject" false (Kernel.exists k u)) !minted

let test_received_counts_only_invocations () =
  (* Regression: the coordinator's [Stop] poison pill (sent on
     deactivate/crash/destroy) is kernel bookkeeping, not traffic, and
     must not inflate the per-Eject received counter. *)
  let k = Kernel.create () in
  let uid =
    Kernel.create_eject k ~type_name:"counted" (fun ctx ~passive:_ ->
        [
          ("Echo", Fun.id);
          ( "Deactivate",
            fun _ ->
              Kernel.deactivate ctx;
              Value.Unit );
        ])
  in
  Kernel.run_driver k (fun ctx ->
      ignore (Kernel.call ctx uid ~op:"Echo" Value.Unit);
      ignore (Kernel.call ctx uid ~op:"Echo" Value.Unit);
      ignore (Kernel.call ctx uid ~op:"Deactivate" Value.Unit);
      (* Reactivates; the Stop that ended the previous incarnation must
         not have counted. *)
      ignore (Kernel.call ctx uid ~op:"Echo" Value.Unit));
  check Alcotest.int "4 invocations dispatched" 4 (Kernel.received k uid)

let test_concurrent_workers_pruned () =
  (* Regression: each Concurrent invocation spawns a worker fiber; the
     finish hook must prune it from the owner's worker list (and the
     scheduler's fiber table), or both grow without bound. *)
  let k = Kernel.create () in
  let uid =
    Kernel.create_eject k ~dispatch:Kernel.Concurrent ~type_name:"conc"
      (fun _ctx ~passive:_ -> [ ("Echo", Fun.id) ])
  in
  Kernel.run_driver k (fun ctx ->
      for _ = 1 to 20 do
        ignore (Kernel.call ctx uid ~op:"Echo" Value.Unit)
      done);
  check Alcotest.int "only the coordinator remains" 1 (Kernel.worker_count k uid)

let test_meter_counts_timeouts () =
  let k = Kernel.create () in
  let uid =
    Kernel.create_eject k ~type_name:"slow" (fun _ctx ~passive:_ ->
        [
          ( "Slow",
            fun v ->
              Eden_sched.Sched.sleep 50.0;
              v );
        ])
  in
  Kernel.run_driver k (fun ctx ->
      match Kernel.invoke_timeout ctx uid ~op:"Slow" Value.Unit ~timeout:1.0 with
      | None -> ()
      | Some _ -> Alcotest.fail "expected a timeout");
  let snap = Kernel.Meter.snapshot k in
  check Alcotest.int "snapshot counts timeouts" 1 snap.Kernel.Meter.timeouts;
  check Alcotest.int "diff subtracts timeouts" 0
    (Kernel.Meter.diff snap snap).Kernel.Meter.timeouts;
  Alcotest.(check bool) "pp renders timeouts" true
    (Eden_util.Text.contains_sub ~sub:"timeouts=1"
       (Format.asprintf "%a" Kernel.Meter.pp snap))

(* --- Allocation pins --------------------------------------------------

   What one invocation costs in minor words, pinned at the value reached
   plus 10%: 152 words for a bare Serial invoke, 196 for a Concurrent
   one, 1 460 for an F2 line on one kernel and 2 613 on three shards.  Minor words are deterministic (same code path, same
   count), so a pin moves only when an allocation is added to or taken
   off a per-invoke path (DESIGN §15).  Each measurement starts after a
   warm-up that brings every table and buffer to its steady size. *)

module T = Eden_transput
module Cluster = Eden_par.Cluster

let words_per ~warm ~n item =
  for _ = 1 to warm do
    item ()
  done;
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    item ()
  done;
  (Gc.minor_words () -. w0) /. float_of_int n

let echo_only _ctx ~passive:_ = [ ("Echo", fun v -> v) ]

(* [n] bare invocations of an echo Eject from a driver. *)
let bare_invoke dispatch =
  let k = Kernel.create () in
  let uid = Kernel.create_eject k ~dispatch ~type_name:"echo" echo_only in
  let words = ref 0. in
  Kernel.run_driver k (fun ctx ->
      words :=
        words_per ~warm:200 ~n:2000 (fun () ->
            ignore (Kernel.invoke ctx uid ~op:"Echo" (Value.Int 1))));
  (!words, k)

(* The F2 read-only chain (trim_trailing -> upcase -> rot13, one line
   per Transfer under legacy flowctl) read to its end.  On one shard
   every stage shares a kernel; on three, the stages alternate over
   shards 1 and 2 and the reader sits on shard 0, as in the benchmark,
   so every hop crosses shards. *)
let f2_line ~shards =
  let warm = 100 and n = 500 in
  let c = Cluster.create Cluster.Deterministic ~shards () in
  let shard_of j = if shards = 1 then 0 else 1 + (j mod 2) in
  let next = ref 0 in
  let gen () =
    let i = !next in
    if i >= warm + n then None
    else begin
      next := i + 1;
      Some (Value.Str (Printf.sprintf "Line %d of the Eden stream  \t" i))
    end
  in
  let src = T.Stage.source_ro (Cluster.kernel c (shard_of 0)) ~capacity:0 gen in
  let _, last =
    List.fold_left
      (fun (j, prev) f ->
        let shard = shard_of j in
        let upstream = Cluster.proxy c ~shard ~ops:[ T.Proto.transfer_op ] ~target:prev in
        let uid =
          T.Stage.filter_ro (Cluster.kernel c shard) ~capacity:0
            ~flowctl:Eden_flowctl.Flowctl.legacy ~upstream f
        in
        (j + 1, (shard, uid)))
      (1, (shard_of 0, src))
      Eden_filters.Catalog.[ trim_trailing; upcase; rot13 ]
  in
  let up = Cluster.proxy c ~shard:0 ~ops:[ T.Proto.transfer_op ] ~target:last in
  let words = ref 0. in
  Cluster.driver c 0 (fun ctx ->
      let p = T.Pull.connect ctx ~flowctl:Eden_flowctl.Flowctl.legacy up in
      words := words_per ~warm ~n (fun () -> ignore (T.Pull.read p));
      while T.Pull.read p <> None do
        ()
      done);
  Cluster.run c;
  (!words, c)

let rtt_counts hists =
  List.filter_map
    (fun (name, h) ->
      if String.starts_with ~prefix:"rtt." name then Some (name, Eden_obs.Obs.Histogram.count h)
      else None)
    hists

let net_counts (m : Eden_net.Net.meter) =
  [ m.sent; m.delivered; m.dropped; m.dropped_loss; m.dropped_partition; m.bytes ]

(* The counters are the ones this fixed run read before the per-invoke
   allocations were cut: the cuts moved no count. *)
let test_allocation_pins () =
  let pin what ~limit words =
    if words > limit then
      Alcotest.failf "%s: %.1f minor words, pinned at %.0f" what words limit
  in
  let ops = Alcotest.(list (pair string int)) and ints = Alcotest.(list int) in
  List.iter
    (fun (what, dispatch, limit) ->
      let words, k = bare_invoke dispatch in
      pin what ~limit words;
      check ops (what ^ ": op counts") [ ("Echo", 2200) ] (Kernel.op_counts k);
      check ops (what ^ ": rtt histogram") [ ("rtt.Echo", 2200) ]
        (rtt_counts (Eden_obs.Obs.histograms (Kernel.obs k)));
      check ints (what ^ ": net meter") [ 4400; 4400; 0; 0; 0; 114400 ]
        (net_counts (Eden_net.Net.meter (Kernel.net k))))
    [
      ("bare Serial invoke", Kernel.Serial, 167.);
      ("bare Concurrent invoke", Kernel.Concurrent, 216.);
    ];
  List.iter
    (fun (shards, limit, transfers, net, makespans) ->
      let what = Printf.sprintf "F2 line on %d shard(s)" shards in
      let words, c = f2_line ~shards in
      pin what ~limit words;
      check ops (what ^ ": op counts") [ ("Transfer", transfers) ] (Cluster.op_counts c);
      check ops (what ^ ": rtt histogram") [ ("rtt.Transfer", transfers) ]
        (rtt_counts (Cluster.histograms c));
      check ints (what ^ ": net meter") net (net_counts (Cluster.meter c).Kernel.Meter.net);
      check
        Alcotest.(array (float 0.))
        (what ^ ": virtual makespans") makespans (Cluster.makespans c))
    [
      (1, 1606., 2404, [ 4808; 4808; 0; 0; 0; 241636 ], [| 0x1.e33333333327dp+6 |]);
      ( 3,
        2874.,
        4808,
        [ 9616; 9616; 0; 0; 0; 483272 ],
        [| 0x1.e0ccccccccc19p+6; 0x1.e2666666665b1p+6; 0x1.e33333333327dp+6 |] );
    ]

let suite =
  [
    ("invoke echo", `Quick, test_invoke_echo);
    ("received counts only invocations", `Quick, test_received_counts_only_invocations);
    ("concurrent workers pruned", `Quick, test_concurrent_workers_pruned);
    ("meter counts timeouts", `Quick, test_meter_counts_timeouts);
    ("error reply", `Quick, test_invoke_error_reply);
    ("unknown op", `Quick, test_invoke_unknown_op);
    ("no such eject", `Quick, test_invoke_no_such_eject);
    ("protocol error reply", `Quick, test_protocol_error_becomes_reply);
    ("call raises Eden_error", `Quick, test_call_raises_on_error);
    ("lazy activation", `Quick, test_lazy_activation);
    ("async invocations overlap", `Quick, test_invoke_async_overlap);
    ("serial dispatch ordering", `Quick, test_serial_dispatch_ordering);
    ("checkpoint crash recover", `Quick, test_checkpoint_crash_recover);
    ("crash without checkpoint resets", `Quick, test_crash_without_checkpoint_resets);
    ("checkpoint history", `Quick, test_checkpoint_history);
    ("destroy", `Quick, test_destroy);
    ("deactivate then reactivate", `Quick, test_deactivate_then_reactivate);
    ("deactivate drops pending", `Quick, test_deactivate_drops_pending_invocations);
    ("timeout on crashed target", `Quick, test_invoke_timeout_on_crashed_target);
    ("partition blocks invocation", `Quick, test_partition_blocks_invocation);
    ("meter counts invocations", `Quick, test_meter_counts_invocations);
    ("op counts", `Quick, test_op_counts);
    ("poke activates without invocation", `Quick, test_poke_activates_without_invocation);
    ("cross-node invocation", `Quick, test_ejects_between_nodes);
    ("value roundtrips", `Quick, test_value_roundtrips);
    ("value accessor errors", `Quick, test_value_accessor_errors);
    ("value size monotone", `Quick, test_value_size_monotone);
    ("uid uniqueness", `Quick, test_uid_uniqueness);
    ("uid collections", `Quick, test_uid_collections);
    ("value pp shapes", `Quick, test_value_pp_shapes);
    ("mint is fresh", `Quick, test_mint_is_fresh);
    ("allocation pins: minor words per invoke and per F2 line", `Quick, test_allocation_pins);
  ]
