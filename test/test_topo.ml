(* Topology as data: the nine hand-wired shapes of the old runners
   re-expressed as [Topo] values, held to fingerprints recorded from
   those runners before they were deleted, plus one rejection test per
   class of ill-formed topology.

   A fingerprint pins everything a deterministic run exposes: each
   sink's byte stream (length and MD5), each report label's lines, the
   plane item counts, the summed kernel meter (invocations, replies,
   activations, ejects, network messages and bytes), per-operation
   counts, cross-shard messages and every shard's final virtual time
   (hex floats, so bit-exact).  The expected strings below were
   produced by the hand-built runners with the same parameters and
   seed. *)

module Topo = Eden_par.Topo
module Cluster = Eden_par.Cluster
module Kernel = Eden_kernel.Kernel
module Value = Eden_kernel.Value
module Pipeline = Eden_transput.Pipeline
module Transform = Eden_transput.Transform
module Resumable = Eden_transput.Resumable

let check = Alcotest.check
let md5 s = Digest.to_hex (Digest.string s)

let fingerprint (o : Topo.outcome) =
  String.concat "\n"
    (List.map (fun (n, b) -> Printf.sprintf "sink %s %d %s" n (String.length b) (md5 b)) o.sinks
    @ List.map
        (fun (l, lines) ->
          Printf.sprintf "report %s %d %s" l (List.length lines) (md5 (String.concat "\n" lines)))
        o.reports
    @ [
        Printf.sprintf "items chunk=%d boxed=%d clean=%b" o.chunk_items o.boxed_items o.eos_clean;
        Format.asprintf "meter %a" Kernel.Meter.pp o.meter;
        "ops "
        ^ String.concat "," (List.map (fun (op, n) -> Printf.sprintf "%s=%d" op n) o.op_counts);
        Printf.sprintf "cross %d" o.cross_messages;
        "makespans "
        ^ String.concat " " (Array.to_list (Array.map (Printf.sprintf "%h") o.makespans));
      ])

let det = Cluster.Deterministic
let seed = 0x70B0L
let domains = 3
let chunked = Topo.chunked ~cut:37 ~chunk_bytes:256 ()
let planes = [ ("boxed", Topo.Boxed); ("chunked", chunked) ]

let shapes =
  [
    ("f2 (run_f2)", Topo.f2 ~batch:2 ~domains ~filters:3 ~items:16 ());
    ("f4 terminal (run_f4)", Topo.f4_terminal ~domains ~items:16 ());
  ]
  @ List.concat_map
      (fun (pn, plane) ->
        [
          ("f1 " ^ pn, Topo.f1 ~plane ~domains ~filters:3 ~items:24 ());
          ("f2 " ^ pn, Topo.f2 ~plane ~domains ~filters:3 ~items:24 ());
          ("f3 " ^ pn, Topo.f3 ~plane ~domains ~items:24 ());
          ("f4 " ^ pn, Topo.f4 ~plane ~domains ~items:24 ());
        ])
      planes
  @ [
      ( "fanin plain",
        Topo.fanin ~domains
          { Topo.default with branches = 4; filters = 2; items = 12; batch = 3; work = 50 } );
      ( "fanin windowed",
        Topo.fanin ~domains
          {
            Topo.default with
            branches = 4;
            filters = 2;
            items = 12;
            batch = 3;
            work = 50;
            flowctl =
              Some (Eden_flowctl.Flowctl.fixed ~credit:(Eden_flowctl.Credit.Window 4) 3);
          } );
    ]
  @ List.map
      (fun (pn, plane) ->
        ("fanin bytes " ^ pn, Topo.fanin_bytes ~domains ~branches:3 ~items:10 ~plane ()))
      planes
  @ List.concat_map
      (fun (sn, style) ->
        List.map
          (fun (pn, plane) ->
            ( Printf.sprintf "window %s %s" sn pn,
              Topo.window ~window:5 ~style ~plane ~domains ~producers:12 ~items:5 () ))
          planes)
      [ ("ro", `Ro); ("wo", `Wo) ]

(* Recorded from Distpipe.run_f2/run_f4/run_f1p..run_f4p and
   Fanin.run/run_bytes/run_window, Deterministic, seed 0x70B0, 3 shards. *)
let expected =
  [
    ( "f2 (run_f2)",
      {|sink sink 480 fff12555c6f6e8ef941adbdbc7b1fdab
items chunk=0 boxed=16 clean=true
meter invocations=64 replies=64 activations=9 ejects=9 live=9 crashes=0 timeouts=0 sent=128 delivered=128 dropped=0 (loss=0 partition=0) bytes=8736
ops Transfer=64
cross 64
makespans 0x1.999999999999bp+0 0x1.0000000000001p+1 0x1.199999999999bp+1|} );
    ( "f4 terminal (run_f4)",
      {|sink terminal 528 0b8685c2f3c389f9974f330d92c72b21
report F1 5 7781e8d5addd5bd6ffcdc64412a4bacb
report source 17 23d38adfa56a43eed4626ec34e80cd7f
items chunk=0 boxed=16 clean=true
meter invocations=186 replies=186 activations=12 ejects=12 live=12 crashes=0 timeouts=0 sent=372 delivered=372 dropped=0 (loss=0 partition=0) bytes=18446
ops Transfer=186
cross 186
makespans 0x1.bfffffffffff6p+2 0x1.0666666666668p+2 0x1.0cccccccccccep+2|} );
    ( "f1 boxed",
      {|sink sink 720 fce427a0f3725deb56283fcf1fe995d9
items chunk=0 boxed=24 clean=true
meter invocations=373 replies=373 activations=16 ejects=16 live=16 crashes=0 timeouts=0 sent=746 delivered=746 dropped=0 (loss=0 partition=0) bytes=35505
ops Deposit=200,Transfer=173
cross 348
makespans 0x1.9ccccccccccbcp+3 0x1.466666666665bp+3 0x1.4ccccccccccc1p+3|} );
    ( "f2 boxed",
      {|sink sink 720 fce427a0f3725deb56283fcf1fe995d9
items chunk=0 boxed=24 clean=true
meter invocations=192 replies=192 activations=9 ejects=9 live=9 crashes=0 timeouts=0 sent=384 delivered=384 dropped=0 (loss=0 partition=0) bytes=19728
ops Transfer=192
cross 192
makespans 0x1.3333333333332p+2 0x1.4cccccccccccap+2 0x1.5999999999996p+2|} );
    ( "f3 boxed",
      {|sink sink 792 144a0576ac72462579a170efe1927714
sink repsink 95 6097b6393e316ddc495b51a8f5607e70
items chunk=0 boxed=31 clean=true
meter invocations=220 replies=220 activations=11 ejects=11 live=11 crashes=0 timeouts=0 sent=440 delivered=440 dropped=0 (loss=0 partition=0) bytes=19756
ops Deposit=220
cross 220
makespans 0x1.4cccccccccccap+2 0x1.9fffffffffff8p+2 0x1.b99999999999p+2|} );
    ( "f4 boxed",
      {|sink sink 792 144a0576ac72462579a170efe1927714
report F1 7 741477b689a5662948453eb9702e0113
items chunk=0 boxed=24 clean=true
meter invocations=214 replies=214 activations=11 ejects=11 live=11 crashes=0 timeouts=0 sent=428 delivered=428 dropped=0 (loss=0 partition=0) bytes=21982
ops Transfer=214
cross 214
makespans 0x1.3fffffffffffep+2 0x1.4cccccccccccap+2 0x1.5999999999996p+2|} );
    ( "f1 chunked",
      {|sink sink 720 fce427a0f3725deb56283fcf1fe995d9
items chunk=2 boxed=0 clean=true
meter invocations=49 replies=49 activations=16 ejects=16 live=16 crashes=0 timeouts=0 sent=98 delivered=98 dropped=0 (loss=0 partition=0) bytes=15067
ops Deposit=26,Transfer=23
cross 46
makespans 0x1.e666666666669p+0 0x1.4cccccccccccdp+0 0x1.999999999999bp+0|} );
    ( "f2 chunked",
      {|sink sink 720 fce427a0f3725deb56283fcf1fe995d9
items chunk=22 boxed=0 clean=true
meter invocations=176 replies=176 activations=9 ejects=9 live=9 crashes=0 timeouts=0 sent=352 delivered=352 dropped=0 (loss=0 partition=0) bytes=21568
ops Transfer=176
cross 176
makespans 0x1.199999999999ap+2 0x1.3333333333332p+2 0x1.3fffffffffffep+2|} );
    ( "f3 chunked",
      {|sink sink 792 144a0576ac72462579a170efe1927714
sink repsink 95 6097b6393e316ddc495b51a8f5607e70
items chunk=3 boxed=7 clean=true
meter invocations=46 replies=46 activations=11 ejects=11 live=11 crashes=0 timeouts=0 sent=92 delivered=92 dropped=0 (loss=0 partition=0) bytes=9662
ops Deposit=46
cross 46
makespans 0x1.999999999999bp+0 0x1.e666666666669p+0 0x1.599999999999cp+1|} );
    ( "f4 chunked",
      {|sink sink 792 144a0576ac72462579a170efe1927714
report F1 7 741477b689a5662948453eb9702e0113
items chunk=22 boxed=0 clean=true
meter invocations=190 replies=190 activations=11 ejects=11 live=11 crashes=0 timeouts=0 sent=380 delivered=380 dropped=0 (loss=0 partition=0) bytes=22554
ops Transfer=190
cross 190
makespans 0x1.199999999999ap+2 0x1.2666666666666p+2 0x1.3333333333332p+2|} );
    ( "fanin plain",
      {|sink b00.sink 108 41aebe9ae84196223064885f08e69c4d
sink b01.sink 108 9004e35834017755807f9d258b4f54de
sink b02.sink 108 412ead480010072e0d3b7191913a82d6
sink b03.sink 108 505a3fcae9f2ae5cc3a3dd8d0b5e8421
items chunk=0 boxed=48 clean=true
meter invocations=64 replies=64 activations=20 ejects=20 live=20 crashes=0 timeouts=0 sent=128 delivered=128 dropped=0 (loss=0 partition=0) bytes=5952
ops Transfer=64
cross 32
makespans 0x1.9999999999999p-1 0x1.b333333333335p+0 0x1.b333333333335p+0|} );
    ( "fanin windowed",
      {|sink b00.sink 108 41aebe9ae84196223064885f08e69c4d
sink b01.sink 108 9004e35834017755807f9d258b4f54de
sink b02.sink 108 412ead480010072e0d3b7191913a82d6
sink b03.sink 108 505a3fcae9f2ae5cc3a3dd8d0b5e8421
items chunk=0 boxed=48 clean=true
meter invocations=112 replies=112 activations=20 ejects=20 live=20 crashes=0 timeouts=0 sent=224 delivered=224 dropped=0 (loss=0 partition=0) bytes=11056
ops Transfer=112
cross 56
makespans 0x1.1999999999999p+0 0x1.0000000000001p+1 0x1.0000000000001p+1|} );
    ( "fanin bytes boxed",
      {|sink b00.sink 290 8dd00ffffb73488aacd4cfa851e7d72d
sink b01.sink 290 4447074e652180dd76f2b9bbb61ad470
sink b02.sink 290 0c4a4646908d2155ecebc56bbb2fbaf1
items chunk=0 boxed=30 clean=true
meter invocations=90 replies=90 activations=12 ejects=12 live=12 crashes=0 timeouts=0 sent=180 delivered=180 dropped=0 (loss=0 partition=0) bytes=9090
ops Transfer=90
cross 60
makespans 0x1.0000000000001p+1 0x1.c000000000004p+1 0x1.c000000000004p+1|} );
    ( "fanin bytes chunked",
      {|sink b00.sink 290 8dd00ffffb73488aacd4cfa851e7d72d
sink b01.sink 290 4447074e652180dd76f2b9bbb61ad470
sink b02.sink 290 0c4a4646908d2155ecebc56bbb2fbaf1
items chunk=19 boxed=0 clean=true
meter invocations=57 replies=57 activations=12 ejects=12 live=12 crashes=0 timeouts=0 sent=114 delivered=114 dropped=0 (loss=0 partition=0) bytes=7683
ops Transfer=57
cross 38
makespans 0x1.999999999999bp+0 0x1.7333333333336p+1 0x1.2666666666668p+1|} );
    ( "window ro boxed",
      {|sink p00000.sink 145 3df22f04d4a4aa269a716bb4268a84da
sink p00001.sink 145 1afd81aab11499b4853127f4535ecde1
sink p00002.sink 145 4e3b38c5e189fe69d7d0dca394e597ec
sink p00003.sink 145 7091cbe89898ceca9fabe5cd23827eb3
sink p00004.sink 145 d07576a573f67a62d7b37afef97e7747
sink p00005.sink 145 4639901da82155474d39fd8f4d8f139b
sink p00006.sink 145 e2dea32a7413d4b27de220ee4567c220
sink p00007.sink 145 9073e53e4a95d61357c1a9a80e6e2ec8
sink p00008.sink 145 800a26860af1f5c3b30ee99023cb6869
sink p00009.sink 145 dbff7d8f31bd26bd52d9f1c3d3b06689
sink p00010.sink 145 0598705ccdeacbfa54b08061b02722a7
sink p00011.sink 145 051d82ddb4bf7a7d428cd934751f9ede
report p00000 2 52afb4c2515a82e394d26cea0b9da29c
report p00001 2 3c17904d82f5b3695653383d63e9f79b
report p00002 2 6d121d7f5d8136f45b60b7d8be60bf63
report p00003 2 a1d850666555bd1a094091b1245ab896
report p00004 2 55382acb0e03d7ccd287425f2cde93ee
report p00005 2 d6a5e75c8aa4d5547bb590f16598cc19
report p00006 2 fa20b8fa6e341de60ba0cfbb76b1ed16
report p00007 2 86a667fb572428bc5b30391ed1e07031
report p00008 2 a9c67afe1eddd78259a6f3d03ac7bde3
report p00009 2 6dd6fa5448fa986cf33a45e4e294f4d1
report p00010 2 f1bb07c68da69567895b3a99fdb6313c
report p00011 2 de225c6cf90ff595a2c85cbc07a11ad5
items chunk=0 boxed=60 clean=true
meter invocations=264 replies=264 activations=63 ejects=63 live=63 crashes=0 timeouts=0 sent=528 delivered=528 dropped=0 (loss=0 partition=0) bytes=25032
ops Transfer=264
cross 192
makespans 0x1.3333333333333p+0 0x1.0cccccccccccep+1 0x1.0cccccccccccep+1|} );
    ( "window ro chunked",
      {|sink p00000.sink 145 3df22f04d4a4aa269a716bb4268a84da
sink p00001.sink 145 1afd81aab11499b4853127f4535ecde1
sink p00002.sink 145 4e3b38c5e189fe69d7d0dca394e597ec
sink p00003.sink 145 7091cbe89898ceca9fabe5cd23827eb3
sink p00004.sink 145 d07576a573f67a62d7b37afef97e7747
sink p00005.sink 145 4639901da82155474d39fd8f4d8f139b
sink p00006.sink 145 e2dea32a7413d4b27de220ee4567c220
sink p00007.sink 145 9073e53e4a95d61357c1a9a80e6e2ec8
sink p00008.sink 145 800a26860af1f5c3b30ee99023cb6869
sink p00009.sink 145 dbff7d8f31bd26bd52d9f1c3d3b06689
sink p00010.sink 145 0598705ccdeacbfa54b08061b02722a7
sink p00011.sink 145 051d82ddb4bf7a7d428cd934751f9ede
report p00000 2 52afb4c2515a82e394d26cea0b9da29c
report p00001 2 3c17904d82f5b3695653383d63e9f79b
report p00002 2 6d121d7f5d8136f45b60b7d8be60bf63
report p00003 2 a1d850666555bd1a094091b1245ab896
report p00004 2 55382acb0e03d7ccd287425f2cde93ee
report p00005 2 d6a5e75c8aa4d5547bb590f16598cc19
report p00006 2 fa20b8fa6e341de60ba0cfbb76b1ed16
report p00007 2 86a667fb572428bc5b30391ed1e07031
report p00008 2 a9c67afe1eddd78259a6f3d03ac7bde3
report p00009 2 6dd6fa5448fa986cf33a45e4e294f4d1
report p00010 2 f1bb07c68da69567895b3a99fdb6313c
report p00011 2 de225c6cf90ff595a2c85cbc07a11ad5
items chunk=25 boxed=0 clean=true
meter invocations=159 replies=159 activations=63 ejects=63 live=63 crashes=0 timeouts=0 sent=318 delivered=318 dropped=0 (loss=0 partition=0) bytes=18731
ops Transfer=159
cross 122
makespans 0x1.fffffffffffffp-1 0x1.0000000000001p+1 0x1.999999999999bp+0|} );
    ( "window wo boxed",
      {|sink p00000.sink 145 3df22f04d4a4aa269a716bb4268a84da
sink p00001.sink 145 1afd81aab11499b4853127f4535ecde1
sink p00002.sink 145 4e3b38c5e189fe69d7d0dca394e597ec
sink p00003.sink 145 7091cbe89898ceca9fabe5cd23827eb3
sink p00004.sink 145 d07576a573f67a62d7b37afef97e7747
sink p00005.sink 145 4639901da82155474d39fd8f4d8f139b
sink p00006.sink 145 e2dea32a7413d4b27de220ee4567c220
sink p00007.sink 145 9073e53e4a95d61357c1a9a80e6e2ec8
sink p00008.sink 145 800a26860af1f5c3b30ee99023cb6869
sink p00009.sink 145 dbff7d8f31bd26bd52d9f1c3d3b06689
sink p00010.sink 145 0598705ccdeacbfa54b08061b02722a7
sink p00011.sink 145 051d82ddb4bf7a7d428cd934751f9ede
report p00000 2 52afb4c2515a82e394d26cea0b9da29c
report p00001 2 3c17904d82f5b3695653383d63e9f79b
report p00002 2 6d121d7f5d8136f45b60b7d8be60bf63
report p00003 2 a1d850666555bd1a094091b1245ab896
report p00004 2 55382acb0e03d7ccd287425f2cde93ee
report p00005 2 d6a5e75c8aa4d5547bb590f16598cc19
report p00006 2 fa20b8fa6e341de60ba0cfbb76b1ed16
report p00007 2 86a667fb572428bc5b30391ed1e07031
report p00008 2 a9c67afe1eddd78259a6f3d03ac7bde3
report p00009 2 6dd6fa5448fa986cf33a45e4e294f4d1
report p00010 2 f1bb07c68da69567895b3a99fdb6313c
report p00011 2 de225c6cf90ff595a2c85cbc07a11ad5
items chunk=0 boxed=60 clean=true
meter invocations=288 replies=288 activations=63 ejects=63 live=63 crashes=0 timeouts=0 sent=576 delivered=576 dropped=0 (loss=0 partition=0) bytes=23232
ops Deposit=288
cross 216
makespans 0x1.ccccccccccccfp+0 0x1.4cccccccccccfp+1 0x1.4cccccccccccfp+1|} );
    ( "window wo chunked",
      {|sink p00000.sink 145 3df22f04d4a4aa269a716bb4268a84da
sink p00001.sink 145 1afd81aab11499b4853127f4535ecde1
sink p00002.sink 145 4e3b38c5e189fe69d7d0dca394e597ec
sink p00003.sink 145 7091cbe89898ceca9fabe5cd23827eb3
sink p00004.sink 145 d07576a573f67a62d7b37afef97e7747
sink p00005.sink 145 4639901da82155474d39fd8f4d8f139b
sink p00006.sink 145 e2dea32a7413d4b27de220ee4567c220
sink p00007.sink 145 9073e53e4a95d61357c1a9a80e6e2ec8
sink p00008.sink 145 800a26860af1f5c3b30ee99023cb6869
sink p00009.sink 145 dbff7d8f31bd26bd52d9f1c3d3b06689
sink p00010.sink 145 0598705ccdeacbfa54b08061b02722a7
sink p00011.sink 145 051d82ddb4bf7a7d428cd934751f9ede
report p00000 2 52afb4c2515a82e394d26cea0b9da29c
report p00001 2 3c17904d82f5b3695653383d63e9f79b
report p00002 2 6d121d7f5d8136f45b60b7d8be60bf63
report p00003 2 a1d850666555bd1a094091b1245ab896
report p00004 2 55382acb0e03d7ccd287425f2cde93ee
report p00005 2 d6a5e75c8aa4d5547bb590f16598cc19
report p00006 2 fa20b8fa6e341de60ba0cfbb76b1ed16
report p00007 2 86a667fb572428bc5b30391ed1e07031
report p00008 2 a9c67afe1eddd78259a6f3d03ac7bde3
report p00009 2 6dd6fa5448fa986cf33a45e4e294f4d1
report p00010 2 f1bb07c68da69567895b3a99fdb6313c
report p00011 2 de225c6cf90ff595a2c85cbc07a11ad5
items chunk=12 boxed=0 clean=true
meter invocations=132 replies=132 activations=63 ejects=63 live=63 crashes=0 timeouts=0 sent=264 delivered=264 dropped=0 (loss=0 partition=0) bytes=14124
ops Deposit=132
cross 120
makespans 0x1.fffffffffffffp-1 0x1.1999999999999p+0 0x1.1999999999999p+0|} );
  ]

let test_fingerprints () =
  check Alcotest.int "every shape has a recorded twin" (List.length expected) (List.length shapes);
  List.iter
    (fun (name, want) ->
      let o = Topo.run det ~seed ~domains (List.assoc name shapes) in
      check Alcotest.string name want (fingerprint o))
    expected

(* --- Rejections: one per class, all raised before any shard exists --- *)

let stage ?(shard = 0) name role = { Topo.name; role; shard; capacity = 0; batch = 1 }
let edge ?(channel = Topo.Output) discipline src dst = { Topo.src; dst; discipline; channel }

let topo stages edges =
  { Topo.stages = Array.of_list stages; edges; plane = Topo.Boxed; flowctl = None }

let src = stage "src" (Topo.Source (Topo.Lines 4))

(* Wire mode throughout: the check runs before Cluster.create, so a
   rejected topology never forks a leaf. *)
let wire =
  Cluster.Wire
    {
      Cluster.wire_transport = Eden_wire.Transport.Unix_socket;
      wire_faults = None;
      wire_auth = None;
    }

let rejects name ?(domains = 2) want t =
  match Topo.run wire ~domains (Lazy.force t) with
  | _ -> Alcotest.failf "%s: accepted" name
  | exception Topo.Invalid e ->
      check Alcotest.bool (name ^ ": " ^ Topo.error_to_string e) true (want e)

let test_bad_sizes () =
  let ok_f2 = lazy (Topo.f2 ~domains:2 ~filters:1 ~items:4 ()) in
  rejects "zero domains" ~domains:0
    (function Topo.Bad_size { what = "domains"; value = 0 } -> true | _ -> false)
    ok_f2;
  rejects "zero items"
    (function Topo.Bad_size { what = "source items"; _ } -> true | _ -> false)
    (lazy (Topo.f2 ~domains:2 ~filters:1 ~items:0 ()));
  rejects "window 0 is refused, not clamped to 1"
    (function Topo.Bad_size { what = "window"; value = 0 } -> true | _ -> false)
    (lazy (Topo.window ~window:0 ~style:`Ro ~plane:Topo.Boxed ~domains:2 ~producers:3 ~items:2 ()));
  rejects "shard out of range"
    (function Topo.Bad_shard { stage = "F1"; shard = 2; domains = 2 } -> true | _ -> false)
    (lazy (Topo.f2 ~domains:3 ~filters:1 ~items:4 ()))

let test_no_passive_output () =
  rejects "pull from a sink"
    (function Topo.No_passive_output { edge = "a -> b" } -> true | _ -> false)
    (lazy
      (topo
         [ src; stage "a" Topo.Sink; stage "b" Topo.Sink ]
         [ edge Topo.Read_only 0 1; edge Topo.Read_only 1 2 ]));
  rejects "pull a report channel a plain filter lacks"
    (function Topo.No_passive_output { edge = "f.report -> w" } -> true | _ -> false)
    (lazy
      (topo
         [ src; stage "f" (Topo.Filter Topo.Upcase); stage "s" Topo.Sink; stage "w" Topo.Window ]
         [
           edge Topo.Read_only 0 1;
           edge Topo.Read_only 1 2;
           edge ~channel:Topo.Report Topo.Read_only 1 3;
         ]))

let test_no_intake () =
  rejects "push into a source"
    (function Topo.No_intake { edge = "src -> src2" } -> true | _ -> false)
    (lazy (topo [ src; stage "src2" (Topo.Source (Topo.Lines 1)) ] [ edge Topo.Write_only 0 1 ]))

let test_needs_pipe () =
  rejects "active source straight into an active sink"
    (function Topo.Needs_pipe { edge = "src -> sink" } -> true | _ -> false)
    (lazy (topo [ src; stage "sink" Topo.Sink ] [ edge Topo.Conventional 0 1 ]))

let test_fan_out () =
  rejects "two sinks pull one output (T3)"
    (function Topo.Fan_out { edge = "src -> b" } -> true | _ -> false)
    (lazy
      (topo
         [ src; stage "a" Topo.Sink; stage "b" Topo.Sink ]
         [ edge Topo.Read_only 0 1; edge Topo.Read_only 0 2 ]))

let test_unjoinable () =
  rejects "a filter passive at both ends"
    (function Topo.Unjoinable { stage = "f"; _ } -> true | _ -> false)
    (lazy
      (topo
         [ src; stage "f" (Topo.Filter Topo.Upcase); stage "s" Topo.Sink ]
         [ edge Topo.Write_only 0 1; edge Topo.Read_only 1 2 ]));
  rejects "a sink off shard 0 under Wire"
    (function Topo.Unjoinable { stage = "sink"; _ } -> true | _ -> false)
    (lazy (topo [ src; stage ~shard:1 "sink" Topo.Sink ] [ edge Topo.Read_only 0 1 ]));
  rejects "a dependency cycle"
    (function Topo.Unjoinable { why = "sits on a dependency cycle"; _ } -> true | _ -> false)
    (lazy
      (topo
         [ stage "f" (Topo.Filter Topo.Upcase); stage "g" (Topo.Filter Topo.Upcase) ]
         [ edge Topo.Read_only 0 1; edge Topo.Read_only 1 0 ]))

(* A report stream with no reader is refused in either discipline.  Run,
   a read-only one would stop its stage, and the main stream with it,
   once its 1 024-report buffer filled: here after 1 024 of 1 100 items,
   with no error.  The check runs before Cluster.create. *)
let test_unread_report () =
  let refused name stages edges =
    match Topo.run det ~domains:1 (topo stages edges) with
    | o ->
        Alcotest.failf "%s: ran, %d of 1100 items, eos_clean %b" name (Topo.consumed o)
          o.eos_clean
    | exception Topo.Invalid (Topo.Unjoinable { stage; why }) ->
        check Alcotest.(pair string string) name ("rep", "has no report reader") (stage, why)
  in
  let src = stage "src" (Topo.Source (Topo.Lines 1100)) and sink = stage "sink" Topo.Sink in
  refused "a reporting source"
    [ stage "rep" (Topo.Reporting_source (Topo.Lines 1100)); sink ]
    [ edge Topo.Read_only 0 1 ];
  List.iter
    (fun d ->
      refused
        ("a " ^ Pipeline.discipline_name d ^ " progress filter")
        [ src; stage "rep" (Topo.Progress 1); sink ]
        [ edge d 0 1; edge d 1 2 ])
    [ Topo.Read_only; Topo.Write_only ]

(* A sink on a stage's output plus a window on the same stage's report
   channel is two channels, not fan-out: the report-window shape. *)
let test_output_plus_report_is_legal () =
  let t =
    topo
      [ src; stage "rep" (Topo.Progress 2); stage "sink" Topo.Sink; stage "w" Topo.Window ]
      [
        edge Topo.Read_only 0 1;
        edge Topo.Read_only 1 2;
        edge ~channel:Topo.Report Topo.Read_only 1 3;
      ]
  in
  let o = Topo.run det ~domains:1 t in
  check Alcotest.bool "eos clean" true o.eos_clean;
  check Alcotest.int "all items" 4 (Topo.consumed o);
  check
    Alcotest.(list (pair string (list string)))
    "reports" [ ("rep", [ "rep: 2 items"; "rep: 4 items"; "rep: done, 4 items" ]) ] o.reports

(* --- Chains on one kernel -------------------------------------------- *)

let lines = List.init 21 (Printf.sprintf "line %02d")

let list_gen vs =
  let rest = ref vs in
  fun () ->
    match !rest with
    | [] -> None
    | v :: tl ->
        rest := tl;
        Some v

(* A bad size is refused while the chain is checked, before any Eject
   exists; write-only and conventional chains clamp capacity to 1. *)
let test_one_kernel_bad_sizes () =
  let build ?capacity ?batch d k =
    Topo.pipeline k ?capacity ?batch d
      ~gen:(list_gen (List.map (fun l -> Value.Str l) lines))
      ~filters:[ Transform.identity; Transform.identity ] ~consume:ignore
  in
  let refused name build =
    let k = Kernel.create () in
    match build k with
    | _ -> Alcotest.failf "%s: built" name
    | exception Topo.Invalid (Topo.Bad_size _) ->
        check Alcotest.int (name ^ ": no Eject") 0 (Kernel.live_ejects k)
  in
  List.iter
    (fun d -> refused ("batch 0, " ^ Pipeline.discipline_name d) (build ~batch:0 d))
    Pipeline.all_disciplines;
  refused "capacity -1, read-only" (build ~capacity:(-1) Pipeline.Read_only);
  refused "resumable, batch 0" (fun k ->
      Topo.resumable k ~batch:0 ~seed:1L Pipeline.Read_only ~gen:(fun _ -> None) ~filters:[]);
  List.iter
    (fun d ->
      let k = Kernel.create () in
      let p = build ~capacity:(-1) d k in
      Kernel.run_driver k (fun _ -> Pipeline.run p);
      check Alcotest.bool
        (Pipeline.discipline_name d ^ " clamps capacity -1 to 1")
        true
        (Eden_sched.Ivar.is_filled p.Pipeline.done_))
    [ Pipeline.Write_only; Pipeline.Conventional ]

(* The roles a resumable chain is made of, run as plain stages across
   shards, give the stream a fault-free resumable chain checkpoints on
   one kernel. *)
let test_resumable_roles_run_plain () =
  let gen i = Option.map (fun l -> Value.Str l) (List.nth_opt lines i) in
  let upcase = Resumable.pure_map (fun v -> Value.Str (String.uppercase_ascii (Value.to_str v))) in
  (* Joins lines in pairs; the odd one out comes from [flush]. *)
  let pairs =
    {
      Resumable.init = Value.Unit;
      step =
        (fun held v ->
          match held with
          | Value.Unit -> (v, [])
          | h -> (Value.Unit, [ Value.Str (Value.to_str h ^ " + " ^ Value.to_str v) ]));
      flush = (function Value.Unit -> [] | h -> [ h ]);
    }
  in
  List.iter
    (fun d ->
      let name = Pipeline.discipline_name d in
      let k = Kernel.create ~nodes:[ "a"; "b"; "c" ] () in
      let p =
        Topo.resumable k ~nodes:(Kernel.nodes k) ~seed:5L d ~gen ~filters:[ upcase; pairs ]
      in
      Kernel.run_driver k (fun _ -> Pipeline.run p);
      let out = Option.get (Pipeline.output p) in
      check Alcotest.int (name ^ ": 10 pairs and a tail") 11 (List.length out);
      let want = String.concat "" (List.map (fun v -> Value.to_str v ^ "\n") out) in
      let at shard name role = { Topo.name; role; shard; capacity = 1; batch = 1 } in
      let t =
        topo
          [
            at 1 "source" (Topo.Source (Topo.Indexed gen));
            at 2 "upcase" (Topo.Filter (Topo.Step upcase));
            at 1 "pairs" (Topo.Filter (Topo.Step pairs));
            at 0 "sink" Topo.Sink;
          ]
          [ edge d 0 1; edge d 1 2; edge d 2 3 ]
      in
      let o = Topo.run det ~domains:3 t in
      check Alcotest.bool (name ^ ": eos clean") true o.eos_clean;
      check Alcotest.string name want (List.assoc "sink" o.sinks))
    [ Pipeline.Read_only; Pipeline.Write_only ]

let suite =
  [
    Alcotest.test_case "fingerprint: nine shapes reproduce their twins" `Quick test_fingerprints;
    Alcotest.test_case "rejects bad sizes and shards" `Quick test_bad_sizes;
    Alcotest.test_case "rejects a pull with no passive output" `Quick test_no_passive_output;
    Alcotest.test_case "rejects a push with no intake" `Quick test_no_intake;
    Alcotest.test_case "rejects active-to-active with no pipe" `Quick test_needs_pipe;
    Alcotest.test_case "rejects naive read-only fan-out (T3)" `Quick test_fan_out;
    Alcotest.test_case "rejects unbuildable stages" `Quick test_unjoinable;
    Alcotest.test_case "rejects an unread report stream" `Quick test_unread_report;
    Alcotest.test_case "output sink + report window is legal" `Quick
      test_output_plus_report_is_legal;
    Alcotest.test_case "one-kernel chains refuse bad sizes before building" `Quick
      test_one_kernel_bad_sizes;
    Alcotest.test_case "resumable roles run plain under Topo.run" `Quick
      test_resumable_roles_run_plain;
  ]
