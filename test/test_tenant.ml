(* Multi-tenant capability namespaces: the adversarial battery.

   A malicious Eject probes a sibling tenant's protected sources with
   every attack class the registry meters — forged channel ids, stolen
   capabilities, replayed seq-stamped Transfers, credit hoards — under
   both the deterministic kernel and the authenticated wire (forked
   shard processes, every frame sealed per socket).  Each attack must
   be refused and charged to the right namespace while the victim's
   stream completes byte-identical to its unattacked oracle run.

   Also here: the revoke x drain x crash exploration suite with the
   revoke-skips-reclaim calibration mutant, the QCheck delegation-tree
   balance property, and MAC fuzzing. *)

module Check = Eden_check.Check
module Policy = Eden_check.Policy
module Sched = Eden_sched.Sched
module Kernel = Eden_kernel.Kernel
module Uid = Eden_kernel.Uid
module Value = Eden_kernel.Value
module Prng = Eden_util.Prng
module Channel = Eden_transput.Channel
module Proto = Eden_transput.Proto
module Stage = Eden_transput.Stage
module Pull = Eden_transput.Pull
module Flowctl = Eden_flowctl.Flowctl
module Credit = Eden_flowctl.Credit
module Aimd = Eden_flowctl.Aimd
module Tenant = Eden_tenant.Tenant
module Auth = Eden_wire.Auth
module Frame = Eden_wire.Frame
module Transport = Eden_wire.Transport
module Bin = Eden_wire.Bin
module Cluster = Eden_par.Cluster
module Elastic = Eden_elastic.Elastic
module Push = Eden_transput.Push
module Retry = Eden_resil.Retry
module Obs = Eden_obs.Obs

let check = Alcotest.check
let replay_dir = "_check"

let list_gen items =
  let r = ref items in
  fun () ->
    match !r with
    | [] -> None
    | v :: tl ->
        r := tl;
        Some v

let items n = List.init n (fun i -> Value.Str (Printf.sprintf "item-%03d" i))
let bytes_of vs = String.concat "" (List.map Bin.encode vs)

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let expect_err name = function
  | Ok _ -> Alcotest.failf "%s: attack was admitted" name
  | Error _ -> ()

let community_id = 0xEDE11L
let community () = Auth.community ~id:community_id ~key:"0123456789abcdef"

(* --- Unit: the keyed-MAC layer ---------------------------------------- *)

(* Reference vectors from the SipHash-2-4 paper (key bytes 00..0f). *)
let test_siphash_vectors () =
  let key = String.init 16 Char.chr in
  check Alcotest.int64 "empty input" 0x726fdb47dd0e0e31L (Auth.siphash ~key "");
  check Alcotest.int64 "one byte" 0x74f839c593dc67fdL (Auth.siphash ~key "\x00");
  check Alcotest.int64 "two bytes" 0x0d6c8009d9a94f5aL (Auth.siphash ~key "\x00\x01")

(* Outputs of the pure-OCaml limb SipHash this repository used before
   the C stub, recorded under the reference key for messages 00..len-1
   of every length 0..64, plain and behind a 24-byte prefix (the shape
   of a data-frame MAC), and the trailers of seven successive sealed
   frames.  The native kernel must reproduce every one. *)
let recorded_plain =
  [|
    0x726fdb47dd0e0e31L; 0x74f839c593dc67fdL; 0x0d6c8009d9a94f5aL;
    0x85676696d7fb7e2dL; 0xcf2794e0277187b7L; 0x18765564cd99a68dL;
    0xcbc9466e58fee3ceL; 0xab0200f58b01d137L; 0x93f5f5799a932462L;
    0x9e0082df0ba9e4b0L; 0x7a5dbbc594ddb9f3L; 0xf4b32f46226bada7L;
    0x751e8fbc860ee5fbL; 0x14ea5627c0843d90L; 0xf723ca908e7af2eeL;
    0xa129ca6149be45e5L; 0x3f2acc7f57c29bdbL; 0x699ae9f52cbe4794L;
    0x4bc1b3f0968dd39cL; 0xbb6dc91da77961bdL; 0xbed65cf21aa2ee98L;
    0xd0f2cbb02e3b67c7L; 0x93536795e3a33e88L; 0xa80c038ccd5ccec8L;
    0xb8ad50c6f649af94L; 0xbce192de8a85b8eaL; 0x17d835b85bbb15f3L;
    0x2f2e6163076bcfadL; 0xde4daaaca71dc9a5L; 0xa6a2506687956571L;
    0xad87a3535c49ef28L; 0x32d892fad841c342L; 0x7127512f72f27cceL;
    0xa7f32346f95978e3L; 0x12e0b01abb051238L; 0x15e034d40fa197aeL;
    0x314dffbe0815a3b4L; 0x027990f029623981L; 0xcadcd4e59ef40c4dL;
    0x9abfd8766a33735cL; 0x0e3ea96b5304a7d0L; 0xad0c42d6fc585992L;
    0x187306c89bc215a9L; 0xd4a60abcf3792b95L; 0xf935451de4f21df2L;
    0xa9538f0419755787L; 0xdb9acddff56ca510L; 0xd06c98cd5c0975ebL;
    0xe612a3cb9ecba951L; 0xc766e62cfcadaf96L; 0xee64435a9752fe72L;
    0xa192d576b245165aL; 0x0a8787bf8ecb74b2L; 0x81b3e73d20b49b6fL;
    0x7fa8220ba3b2eceaL; 0x245731c13ca42499L; 0xb78dbfaf3a8d83bdL;
    0xea1ad565322a1a0bL; 0x60e61c23a3795013L; 0x6606d7e446282b93L;
    0x6ca4ecb15c5f91e1L; 0x9f626da15c9625f3L; 0xe51b38608ef25f57L;
    0x958a324ceb064572L; 0xacd2c40b8502cad8L;
  |]

let recorded_prefixed =
  [|
    0x5ef9f420d40ca217L; 0xc199e5fafb8c25d1L; 0xbeafd8a778446e81L;
    0x85ba7a5239127518L; 0x5650b2405c4cda51L; 0x2dee091cb225c1ebL;
    0x67857473c9193d25L; 0x0d8c239bbf5441d9L; 0x42592ec7241c3dd3L;
    0x819c956105caeecaL; 0x3e20d0573e817e3dL; 0xa540d74e16913b4fL;
    0x2180e17248fedbfbL; 0x114d97b28f16b723L; 0x6b996c797e681265L;
    0xe88c7a5911a87a05L; 0x320c846d89af7ff8L; 0x07cd894c49335c54L;
    0x50fc086884fc496fL; 0xa03d815729b9c309L; 0x05a5eccd25f925d7L;
    0xf5b79a8c17d4adb5L; 0x9e0e37274c439c65L; 0x05c71f8dfef34007L;
    0xc7e140e275551c86L; 0xb6f36ad9703efb54L; 0x8c873d231cbaf94eL;
    0x660c1b0b9fcbbcdeL; 0x4a04d453148a1446L; 0xe609d6ade4d4aa0dL;
    0x61413dde40e77d10L; 0xaf16c9aad187f1b5L; 0x1f35dac9750b5cfeL;
    0x2c4e30feb3323058L; 0x0fb6c178b4fed365L; 0x1189ea6fa6d6fe85L;
    0xe4ce84a8e0362732L; 0x1d44c2fcc9c3bae2L; 0x76c1d29371c25644L;
    0x78c1beb660fad510L; 0x5d3009f49d9d83a6L; 0x57bc7f8318be6434L;
    0xa625e04d4c25d0c5L; 0x42b20a9357671578L; 0x1bc3e2505ab2de04L;
    0x70458e0914c21e10L; 0x3e918b0b499eaa60L; 0x15b881223e68302eL;
    0x4b1baa12fd234e24L; 0x17b974eef500c792L; 0xa874c9d5f3bdde20L;
    0x914dd30d413d8fceL; 0xf798c0537a3404eaL; 0xd73f707ae68e630bL;
    0x6c427611686ce5a2L; 0xff30c6024c369309L; 0xa1531448510c0847L;
    0xcb5e326d61393861L; 0x12046f35e7bc9798L; 0xf52ff8cbfacd5d3fL;
    0xeec2a505ba044f81L; 0x13bbac4c8b2b5b7eL; 0xa13f5c62b204418fL;
    0x7b25a2c95a518087L; 0x95ac6193a36f525dL;
  |]

let recorded_trailers =
  [|
    0x5329bf0c1441c4acL; 0x8bf2d2559bbdb9cfL; 0xb0f5049646380a39L;
    0x932678be56af4dd3L; 0x882cb7047d1bdcb3L; 0xc3645158750db88fL;
    0xe5ee62b56a92d023L;
  |]

let test_siphash_native_matches_recorded () =
  let key = String.init 16 Char.chr in
  let msg n = String.init n (fun i -> Char.chr (i land 0xFF)) in
  let prefix = String.init 24 (fun i -> Char.chr ((0xA0 + (i * 7)) land 0xFF)) in
  Array.iteri
    (fun n want ->
      check Alcotest.int64 (Printf.sprintf "length %d" n) want (Auth.siphash ~key (msg n));
      check Alcotest.int64
        (Printf.sprintf "length %d behind the prefix" n)
        recorded_prefixed.(n)
        (Auth.siphash_prefixed ~key ~prefix (msg n));
      check Alcotest.int64
        (Printf.sprintf "length %d: prefixed = concatenated" n)
        (Auth.siphash ~key (prefix ^ msg n))
        (Auth.siphash_prefixed ~key ~prefix (msg n)))
    recorded_plain;
  let c = Auth.community ~id:0x5EA1L ~key:"0123456789abcdef" in
  let s = Auth.session c ~token:(Auth.mint_token c ~shard:2 ~nonce:99L) in
  List.iteri
    (fun i n ->
      let sealed = Auth.seal s (Frame.make ~kind:Frame.Reply ~src:2 ~dst:1 ~seq:77 (msg n)) in
      let p = sealed.Frame.payload in
      check Alcotest.int64
        (Printf.sprintf "trailer of sealed frame %d (%d bytes)" i n)
        recorded_trailers.(i)
        (String.get_int64_be p (String.length p - 8)))
    [ 0; 1; 7; 8; 9; 100; 4096 ]

let test_auth_seal_open_replay () =
  let c = community () in
  let tx = Auth.session c ~token:7L in
  let rx = Auth.session c ~token:7L in
  let f = Frame.make ~kind:Frame.Request ~src:1 ~dst:0 ~seq:5 "payload" in
  let sealed = Auth.seal tx f in
  let opened = Auth.open_ rx sealed in
  check Alcotest.string "payload survives seal/open" "payload" opened.Frame.payload;
  match Auth.open_ rx sealed with
  | exception Value.Protocol_error msg ->
      Alcotest.(check bool) "refusal names the replay" true (contains msg "replay")
  | _ -> Alcotest.fail "replayed sealed frame accepted"

let test_credit_revoke () =
  let w = Credit.create (Credit.Window 4) in
  Alcotest.(check bool) "take" true (Credit.take w);
  Alcotest.(check bool) "take" true (Credit.take w);
  check Alcotest.int "revoke reclaims in-flight" 2 (Credit.revoke w);
  Alcotest.(check bool) "revoked" true (Credit.revoked w);
  Alcotest.(check bool) "take refused after revoke" false (Credit.take w);
  Credit.give w;
  check Alcotest.int "give is a no-op after revoke" 0 (Credit.in_flight w);
  check Alcotest.int "second revoke reclaims nothing" 0 (Credit.revoke w)

(* --- The adversarial battery ------------------------------------------ *)

(* The victim's stream with no registry and no attacker: the oracle the
   attacked runs must match byte for byte. *)
let oracle_run n ~seed =
  let k = Kernel.create ~seed () in
  let src = Stage.source_ro k ~capacity:0 (list_gen (items n)) in
  let got = ref [] in
  Kernel.run_driver k (fun ctx ->
      let pull =
        Pull.connect ctx ~flowctl:(Flowctl.fixed ~credit:(Credit.Window 2) 4) src
      in
      Pull.iter (fun v -> got := v :: !got) pull);
  List.rev !got

(* Attacks 1-6 probe the victim's main source; the replay pair runs
   against a second protected source, because a replay needs a
   first, legitimately admitted seq-stamped Transfer — and the victim's
   own windowed stream must stay untouched by it. *)
let test_adversary_det () =
  let n = 24 in
  let oracle = oracle_run n ~seed:11L in
  let k = Kernel.create ~seed:11L () in
  let src1 = Stage.source_ro k ~capacity:0 (list_gen (items n)) in
  let src2 = Stage.source_ro k ~capacity:0 (list_gen (items 4)) in
  let reg = Tenant.install ~hoard_quota:8 k in
  let alice = Tenant.tenant reg "alice" in
  let mallory = Tenant.tenant reg "mallory" in
  Tenant.protect reg ~owner:alice src1;
  Tenant.protect reg ~owner:alice src2;
  let cap = Tenant.grant reg alice ~rights:Tenant.Read ~underlying:Channel.output src1 in
  let cap_r = Tenant.grant reg alice ~rights:Tenant.Read ~underlying:Channel.output src2 in
  let wcap = Tenant.grant reg alice ~rights:Tenant.Write ~underlying:Channel.output src1 in
  let mcap = Tenant.grant reg mallory ~rights:Tenant.Read ~underlying:Channel.output src1 in
  let gen = Uid.generator ~seed:0xBAD0L in
  let got = ref [] in
  Kernel.run_driver k (fun ctx ->
      let attack name dst v = expect_err name (Kernel.invoke ctx dst ~op:Proto.transfer_op v) in
      (* Forged ids: the paper's small-integer hole, a guessed capability
         UID, and a malformed request — all charged to the owner. *)
      attack "forged int channel" src1 (Proto.transfer_request (Channel.Num 0) ~credit:1);
      attack "guessed cap uid" src1
        (Proto.transfer_request (Channel.Cap (Uid.fresh gen)) ~credit:1);
      attack "malformed request" src1 (Value.Str "gibberish");
      (* Stolen channel: a real capability id naked, under a forged
         session token, and through the wrong right. *)
      attack "stolen channel, no token" src1
        (Proto.transfer_request (Tenant.channel cap) ~credit:1);
      attack "stolen channel, forged token" src1
        (Value.List
           [ Value.Str "eden.auth"; Value.Uid (Uid.fresh gen);
             Proto.transfer_request (Tenant.channel cap) ~credit:1 ]);
      attack "transfer through a write cap" src1
        (Tenant.wrap wcap (Proto.transfer_request (Tenant.channel wcap) ~credit:1));
      (* A guard refusal replies without ever activating the victim. *)
      Alcotest.(check bool) "refused probes never activate the victim" false
        (Kernel.is_active k src1);
      (* Replay: admit a seq-stamped Transfer once, present it again. *)
      let stale =
        Tenant.wrap cap_r (Proto.transfer_request ~seq:0 (Tenant.channel cap_r) ~credit:2)
      in
      (match Kernel.invoke ctx src2 ~op:Proto.transfer_op stale with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "legitimate seq transfer refused: %s" e);
      attack "replayed Transfer" src2 stale;
      (* Hoard: mallory asks for more outstanding credit than the quota
         allows, trying to starve the window pool. *)
      attack "credit hoard" src1
        (Tenant.wrap mcap (Proto.transfer_request (Tenant.channel mcap) ~credit:9));
      (* The victim's stream, windowed, through its own capability. *)
      let pull = Tenant.pull ctx ~flowctl:(Flowctl.fixed ~credit:(Credit.Window 2) 4) cap in
      Pull.iter (fun v -> got := v :: !got) pull;
      (* Stale-holder use after revocation: refused, counted apart from
         the four attack classes. *)
      Tenant.revoke reg cap_r;
      attack "use after revoke" src2
        (Tenant.wrap cap_r (Proto.transfer_request ~seq:1 (Tenant.channel cap_r) ~credit:1)));
  check Alcotest.string "victim stream byte-identical to oracle" (bytes_of oracle)
    (bytes_of (List.rev !got));
  let v t c = Tenant.violation_count reg t c in
  check Alcotest.int "alice: forged ids" 3 (v alice Tenant.Forged_id);
  check Alcotest.int "alice: stolen channels" 3 (v alice Tenant.Stolen_channel);
  check Alcotest.int "alice: replayed transfers" 1 (v alice Tenant.Replayed_transfer);
  check Alcotest.int "alice: no hoard charged to the victim" 0 (v alice Tenant.Credit_hoard);
  check Alcotest.int "mallory: hoard names the offender" 1 (v mallory Tenant.Credit_hoard);
  check Alcotest.int "mallory: otherwise clean" 0
    (v mallory Tenant.Forged_id + v mallory Tenant.Stolen_channel
    + v mallory Tenant.Replayed_transfer);
  check Alcotest.int "alice: revoked use counted apart" 1 (Tenant.revoked_uses reg alice);
  check Alcotest.int "alice: outstanding credit drained" 0 (Tenant.outstanding_credit reg alice);
  check Alcotest.int "mallory: outstanding credit drained" 0
    (Tenant.outstanding_credit reg mallory);
  check Alcotest.int "alice: live caps (3 granted - 1 revoked)" 2 (Tenant.live_caps reg alice);
  check Alcotest.int "mallory: live caps" 1 (Tenant.live_caps reg mallory);
  check Alcotest.int "cap_r's admitted credit was reclaimed at reply time, not revoke" 0
    (Tenant.credits_reclaimed reg alice);
  (* The credits gauge's high-water mark: at most window x batch. *)
  (match
     List.find_opt
       (fun s -> s.Obs.Flow.label = "tenant.alice.credits")
       (Obs.stages (Kernel.obs k))
   with
  | None -> Alcotest.fail "credits gauge not registered"
  | Some s ->
      Alcotest.(check bool) "peak outstanding within window x batch" true
        (s.Obs.Flow.max_occupancy >= 4 && s.Obs.Flow.max_occupancy <= 8));
  (* The shell surfaces the same meters without knowing the registry. *)
  let lines = Eden_shell.Shell.render_tenants k in
  Alcotest.(check bool) "shell renders per-tenant meters" true
    (List.exists (fun l -> contains l "tenant alice:" && contains l "forged_id=3") lines
    && List.exists (fun l -> contains l "tenant mallory:" && contains l "credit_hoard=1") lines)

(* Same battery across real OS processes: the registry is installed on
   the leaf shard before the fork, the attacker drives from the hub
   through proxies, and every frame rides the authenticated transport
   (per-socket session tokens and MACs).  Revocation is
   exercised only in the deterministic battery: a hub-side revoke
   cannot reach a forked leaf's registry copy. *)
let test_adversary_wire () =
  let n = 24 in
  let oracle = oracle_run n ~seed:11L in
  let c =
    Cluster.create ~seed:11L
      (Cluster.Wire
         { Cluster.wire_transport = Transport.Unix_socket;
           wire_faults = None;
           wire_auth = Some (community ()) })
      ~shards:2 ()
  in
  let k1 = Cluster.kernel c 1 in
  let src1 = Stage.source_ro k1 ~capacity:0 (list_gen (items n)) in
  let src2 = Stage.source_ro k1 ~capacity:0 (list_gen (items 4)) in
  let reg = Tenant.install ~hoard_quota:8 k1 in
  let alice = Tenant.tenant reg "alice" in
  let mallory = Tenant.tenant reg "mallory" in
  Tenant.protect reg ~owner:alice src1;
  Tenant.protect reg ~owner:alice src2;
  let cap = Tenant.grant reg alice ~rights:Tenant.Read ~underlying:Channel.output src1 in
  let cap_r = Tenant.grant reg alice ~rights:Tenant.Read ~underlying:Channel.output src2 in
  let mcap = Tenant.grant reg mallory ~rights:Tenant.Read ~underlying:Channel.output src1 in
  let p1 = Cluster.proxy c ~shard:0 ~ops:[ Proto.transfer_op ] ~target:(1, src1) in
  let p2 = Cluster.proxy c ~shard:0 ~ops:[ Proto.transfer_op ] ~target:(1, src2) in
  let gen = Uid.generator ~seed:0xBAD0L in
  let got = ref [] in
  Cluster.driver c 0 (fun ctx ->
      let attack name dst v = expect_err name (Kernel.invoke ctx dst ~op:Proto.transfer_op v) in
      attack "forged int channel" p1 (Proto.transfer_request (Channel.Num 0) ~credit:1);
      attack "guessed cap uid" p1
        (Proto.transfer_request (Channel.Cap (Uid.fresh gen)) ~credit:1);
      attack "stolen channel, no token" p1
        (Proto.transfer_request (Tenant.channel cap) ~credit:1);
      let stale =
        Tenant.wrap cap_r (Proto.transfer_request ~seq:0 (Tenant.channel cap_r) ~credit:2)
      in
      (match Kernel.invoke ctx p2 ~op:Proto.transfer_op stale with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "legitimate seq transfer refused over the wire: %s" e);
      attack "replayed Transfer" p2 stale;
      attack "credit hoard" p1
        (Tenant.wrap mcap (Proto.transfer_request (Tenant.channel mcap) ~credit:9));
      let pull =
        Pull.connect ctx
          ~flowctl:(Flowctl.fixed ~credit:(Credit.Window 2) 4)
          ~channel:(Tenant.channel cap) ~wrap:(Tenant.wrap cap) p1
      in
      Pull.iter (fun v -> got := v :: !got) pull);
  Cluster.run c;
  check Alcotest.string "victim stream byte-identical over the authenticated wire"
    (bytes_of oracle)
    (bytes_of (List.rev !got));
  (* Meters aggregated from the leaf process's shutdown report. *)
  let flow label =
    match List.find_opt (fun (l, _, _) -> l = label) (Cluster.flows c) with
    | Some (_, items_in, _) -> items_in
    | None -> 0
  in
  check Alcotest.int "alice: forged ids over the wire" 2 (flow "tenant.alice.forged_id");
  check Alcotest.int "alice: stolen channels" 1 (flow "tenant.alice.stolen_channel");
  check Alcotest.int "alice: replayed transfers" 1 (flow "tenant.alice.replayed_transfer");
  check Alcotest.int "alice: no hoard" 0 (flow "tenant.alice.credit_hoard");
  check Alcotest.int "mallory: hoard names the offender" 1 (flow "tenant.mallory.credit_hoard")

(* --- Exploration: revoke x drain x crash ------------------------------ *)

(* The elastic workload from test_elastic, kept local: partitioned
   running sums, where any lost or duplicated item shifts every later
   output of its channel. *)
let nchan = 3
let classify v = Value.to_int v mod nchan

let spec =
  {
    Elastic.init = Value.Int 0;
    step =
      (fun st v ->
        let s = Value.to_int st + Value.to_int v in
        (Value.Int s, [ Value.Int s ]));
  }

let expected_outputs n =
  let sums = Array.make nchan 0 in
  let outs = Array.make nchan [] in
  for i = 0 to n - 1 do
    let c = i mod nchan in
    sums.(c) <- sums.(c) + i;
    outs.(c) <- Value.Int sums.(c) :: outs.(c)
  done;
  List.init nchan (fun c -> (c, List.rev outs.(c))) |> List.filter (fun (_, l) -> l <> [])

let fixed_ctrl n =
  Aimd.params ~min_batch:n ~max_batch:n ~increase:1 ~decrease:0.5 ~low_watermark:0.25
    ~high_watermark:0.75 ()

(* One decide-driven run over a kernel hosting both an elastic fleet
   (crash and fenced-drain surface) and a tenant-guarded windowed pull
   (revocation surface).  The schedule picks a replica-crash point, a
   drain point and a revocation point in item-index units; pick 0 = no
   event, so FIFO is the attack- and fault-free baseline.  Asserts: the
   fleet stays exactly-once, the victim stream is a prefix of its
   oracle (the whole oracle when no revocation fired), a revocation
   kills the bound credit window and reclaims every credit, and the
   run completes. *)
let tenant_prop ?defect ctl =
  let n = 12 in
  let m = 16 in
  let k = Kernel.create ~seed:2L () in
  Check.attach ctl (Kernel.sched k);
  let reg = Tenant.install ?defect k in
  let alice = Tenant.tenant reg "alice" in
  let src = Stage.source_ro k ~capacity:0 (list_gen (items m)) in
  Tenant.protect reg ~owner:alice src;
  let cap = Tenant.grant reg alice ~rights:Tenant.Read ~underlying:Channel.output src in
  let e =
    Elastic.create k ~classify ~spec
      (Elastic.params ~tick:1.0 ~checkpoint_every:3 ~auto:false ~ctrl:(fixed_ctrl 2) ())
  in
  (* Decision order matters for DFS, which varies the deepest recorded
     pick first: the revocation point — the decision the calibration
     mutant hinges on — is decided last so bounded DFS reaches it
     early. *)
  let crash_at = Check.decide ctl ~kind:"tenant.crash_at" ~n:(n + 1) in
  let drain_at = Check.decide ctl ~kind:"tenant.drain_at" ~n:(n + 1) in
  let revoke_at = Check.decide ctl ~kind:"tenant.revoke_at" ~n:(n + 1) in
  Elastic.start e;
  let completed = ref false in
  let got = ref [] in
  let pull_err = ref None in
  let window = ref None in
  Kernel.run_driver k (fun ctx ->
      let push = Push.connect ctx ~batch:1 ~retry:(Retry.client 77L) (Elastic.router e) in
      let pull = Tenant.pull ctx ~flowctl:(Flowctl.fixed ~credit:(Credit.Window 2) 2) cap in
      window := Pull.credit pull;
      let pull_done = ref false in
      let read_one () =
        if not !pull_done then
          match Pull.read pull with
          | Some v -> got := v :: !got
          | None -> pull_done := true
          | exception Kernel.Eden_error msg ->
              pull_done := true;
              pull_err := Some msg
      in
      for i = 0 to n - 1 do
        if i + 1 = crash_at then begin
          (match Elastic.replica_uids e with
          | (_, uid) :: _ -> Kernel.crash k uid
          | [] -> ());
          Sched.note (Kernel.sched k) ~kind:"tenant.crash" ~arg:i
        end;
        if i + 1 = drain_at then ignore (Elastic.drain_one ctx e);
        if i + 1 = revoke_at then Tenant.revoke reg cap;
        Push.write push (Value.Int i);
        Push.flush push;
        read_one ()
      done;
      while not !pull_done do
        read_one ()
      done;
      Push.close push;
      completed := Elastic.await_timeout e ~timeout:3000.0;
      Elastic.stop e);
  Sched.check_failures (Kernel.sched k);
  if not !completed then failwith "elastic run wedged";
  (match Elastic.violations e with
  | [] -> ()
  | v :: _ -> failwith ("violation: " ^ v));
  if Elastic.outputs e <> expected_outputs n then failwith "elastic outputs diverged";
  let got = List.rev !got in
  let oracle = items m in
  let rec is_prefix a b =
    match (a, b) with
    | [], _ -> true
    | x :: a', y :: b' -> Value.equal x y && is_prefix a' b'
    | _ :: _, [] -> false
  in
  if revoke_at = 0 then begin
    (match !pull_err with
    | Some e -> failwith ("pull errored without a revocation: " ^ e)
    | None -> ());
    if got <> oracle then failwith "victim stream diverged"
  end
  else begin
    if not (is_prefix got oracle) then failwith "revoked stream is not an oracle prefix";
    if not (Tenant.is_revoked cap) then failwith "cap not revoked";
    match !window with
    | None -> failwith "windowed pull exposed no credit window"
    | Some w ->
        if not (Credit.revoked w) then failwith "revocation leaked the bound credit window";
        if Credit.in_flight w <> 0 then failwith "in-flight credits survived revocation"
  end;
  if Tenant.outstanding_credit reg alice <> 0 then failwith "outstanding credit leaked"

let test_exploration_real_impl policy () =
  ignore
    (Check.run_or_fail ~budget:40 ~policy ~seed:Seed.base ~replay_dir
       ~name:("tenant-" ^ Policy.to_string policy)
       (tenant_prop ?defect:None))

(* Calibration mutant: a revocation that forgets to reclaim — the
   subtree is marked revoked (the guard refuses further use) but bound
   client windows stay alive with their in-flight count stuck and the
   outstanding gauge never drains.  FIFO never revokes (pick 0), so it
   hides; any schedule that picks a revocation point exposes it. *)
let test_mutant_hides_under_fifo () =
  Alcotest.(check bool) "real impl passes FIFO" true
    (Check.fifo_passes (tenant_prop ?defect:None));
  Alcotest.(check bool) "mutant benign under FIFO" true
    (Check.fifo_passes (tenant_prop ~defect:Tenant.Revoke_skips_reclaim))

(* Fit bounded DFS to the decide prefix (3 picks, 13-way), exactly as
   the elastic suite does: the scheduler tail runs FIFO, and the
   explorer enumerates fault points instead of burning its budget in
   the binary run-queue subtree. *)
let tune_for_decides = function
  | Policy.Dfs _ -> Policy.Dfs { max_branch = 13; max_steps = 3 }
  | p -> p

let test_mutant_found policy () =
  let policy = tune_for_decides policy in
  let f =
    Check.find_bug ~budget:32 ~policy ~seed:Seed.base ~replay_dir
      ~name:("tenant-mutant-" ^ Policy.to_string policy)
      (tenant_prop ~defect:Tenant.Revoke_skips_reclaim)
  in
  Alcotest.(check bool) "caught within 32 schedules" true (f.Check.schedules <= 32);
  match f.Check.replay_path with
  | None -> Alcotest.fail "no replay file written"
  | Some path ->
      let r = Check.replay ~path (tenant_prop ~defect:Tenant.Revoke_skips_reclaim) in
      Alcotest.(check bool) "replay reproduces" true r.Check.reproduced;
      let ok = Check.replay ~path (tenant_prop ?defect:None) in
      Alcotest.(check bool) "correct impl survives the same schedule" true
        (not ok.Check.reproduced)

(* --- QCheck: delegation trees ----------------------------------------- *)

(* Build a random delegation tree over one root capability, revoke a
   random node, and check the registry against the model: exactly the
   node's subtree is revoked, a revoked capability cannot be extended,
   revocation is idempotent, and the live-caps gauge balances. *)
let prop_delegation_revoke =
  Seed.to_alcotest
    (QCheck2.Test.make
       ~name:"delegation: revoke prunes exactly the subtree; live-caps balances" ~count:50
       QCheck2.Gen.(pair (list_size (int_range 0 14) (int_bound 1000)) (int_bound 1000))
       (fun (parents, cut) ->
         let k = Kernel.create ~seed:13L () in
         let reg = Tenant.install k in
         let t = Tenant.tenant reg "qc" in
         let src = Stage.source_ro k ~capacity:0 (list_gen []) in
         Tenant.protect reg ~owner:t src;
         let root = Tenant.grant reg t ~rights:Tenant.Read ~underlying:Channel.output src in
         let total = List.length parents + 1 in
         let caps = Array.make total root in
         let parent_of = Array.make total (-1) in
         List.iteri
           (fun i p ->
             let pi = p mod (i + 1) in
             parent_of.(i + 1) <- pi;
             caps.(i + 1) <- Tenant.delegate reg caps.(pi))
           parents;
         if Tenant.live_caps reg t <> total then false
         else begin
           let cut = cut mod total in
           Tenant.revoke reg caps.(cut);
           let dead = Array.make total false in
           dead.(cut) <- true;
           (* Parents precede children in index order, so one forward
              pass closes the subtree. *)
           for i = 1 to total - 1 do
             if dead.(parent_of.(i)) then dead.(i) <- true
           done;
           let ndead = Array.fold_left (fun a d -> if d then a + 1 else a) 0 dead in
           let structure_ok =
             List.for_all
               (fun i -> Tenant.is_revoked caps.(i) = dead.(i))
               (List.init total Fun.id)
           in
           let gauge_ok = Tenant.live_caps reg t = total - ndead in
           Tenant.revoke reg caps.(cut);
           let idempotent = Tenant.live_caps reg t = total - ndead in
           let no_regrow =
             match Tenant.delegate reg caps.(cut) with
             | exception Invalid_argument _ -> true
             | _ -> false
           in
           structure_ok && gauge_ok && idempotent && no_regrow
         end))

(* --- QCheck: MAC fuzz ------------------------------------------------- *)

let mutate_payload (f : Frame.t) ~mode ~pos ~bit =
  let len = String.length f.Frame.payload in
  match mode with
  | 0 ->
      let cut = if len = 0 then 0 else pos mod len in
      { f with Frame.payload = String.sub f.Frame.payload 0 cut }
  | _ ->
      if len = 0 then { f with Frame.payload = "\x01" }
      else begin
        let b = Bytes.of_string f.Frame.payload in
        let i = pos mod len in
        Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl (bit mod 8))));
        { f with Frame.payload = Bytes.to_string b }
      end

(* Sealed data frames: any payload truncation, bit flip, or header
   rewrite must be refused with the clean protocol error — and an
   untouched frame must still open. *)
let prop_sealed_frame_fuzz =
  Seed.to_alcotest
    (QCheck2.Test.make ~name:"auth MAC: mutated sealed frames rejected cleanly" ~count:120
       QCheck2.Gen.(
         tup4 (int_bound 2) (int_bound 255) (int_bound 7) (string_size (int_range 0 40)))
       (fun (mode, pos, bit, payload) ->
         let c = community () in
         let tx = Auth.session c ~token:9L in
         let rx = Auth.session c ~token:9L in
         let f = Frame.make ~kind:Frame.Request ~src:1 ~dst:0 ~seq:3 payload in
         let sealed = Auth.seal tx f in
         let m =
           match mode with
           | 0 | 1 -> mutate_payload sealed ~mode ~pos ~bit
           | _ ->
               { sealed with
                 Frame.hdr = { sealed.Frame.hdr with Frame.src = sealed.Frame.hdr.Frame.src + 1 }
               }
         in
         match Auth.open_ rx m with
         | exception Value.Protocol_error _ ->
             (* Refused: fine unless the mutation was a no-op. *)
             m <> sealed
         | _ -> m = sealed))

(* --- Suite ------------------------------------------------------------ *)

let exploration_tests =
  List.map
    (fun policy ->
      ( "exploration: revoke x drain x crash clean under " ^ Policy.to_string policy,
        `Quick,
        test_exploration_real_impl policy ))
    Policy.quick_matrix

let mutant_tests =
  List.map
    (fun policy ->
      ( "mutant revoke-skips-reclaim caught by " ^ Policy.to_string policy,
        `Quick,
        test_mutant_found policy ))
    Policy.quick_matrix

let suite =
  [
    ("siphash-2-4 reference vectors", `Quick, test_siphash_vectors);
    ("native siphash reproduces the recorded OCaml outputs", `Quick,
      test_siphash_native_matches_recorded);
    ("sealed frames open once, replays refused", `Quick, test_auth_seal_open_replay);
    ("credit window revocation reclaims in-flight", `Quick, test_credit_revoke);
    ("adversary battery, deterministic kernel", `Quick, test_adversary_det);
    ("adversary battery over the authenticated wire", `Quick, test_adversary_wire);
    ("mutant hides under FIFO", `Quick, test_mutant_hides_under_fifo);
    prop_delegation_revoke;
    prop_sealed_frame_fuzz;
  ]
  @ exploration_tests @ mutant_tests
