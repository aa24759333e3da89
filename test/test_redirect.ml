(* Dynamic stream redirection and the rendezvous primitive. *)

open Eden_kernel
open Eden_transput
module Dev = Eden_devices.Devices
module Rendezvous = Eden_sched.Rendezvous

let check = Alcotest.check
let lines_t = Alcotest.(list string)

let test_redirector_transparent () =
  let k = Kernel.create () in
  let a = Dev.text_source k [ "a1"; "a2"; "a3" ] in
  let r = Redirect.create k ~initial:a () in
  let out = ref [] in
  Kernel.run_driver k (fun ctx ->
      let pull = Pull.connect ctx r in
      Pull.iter (fun v -> out := Value.to_str v :: !out) pull);
  check lines_t "proxied verbatim" [ "a1"; "a2"; "a3" ] (List.rev !out)

let test_redirect_mid_stream () =
  let k = Kernel.create () in
  let a = Dev.text_source k (List.init 100 (fun i -> Printf.sprintf "a%d" i)) in
  let b = Dev.text_source k [ "b0"; "b1" ] in
  let r = Redirect.create k ~initial:a () in
  let out = ref [] in
  Kernel.run_driver k (fun ctx ->
      let pull = Pull.connect ctx r in
      (* Take three items from a, switch to b, drain. *)
      for _ = 1 to 3 do
        match Pull.read pull with
        | Some v -> out := Value.to_str v :: !out
        | None -> ()
      done;
      Redirect.set_source ctx ~redirector:r b;
      Pull.iter (fun v -> out := Value.to_str v :: !out) pull);
  let got = List.rev !out in
  (* The first three came from a; after the switch everything comes
     from b (one a-item already in flight inside the proxy may slip
     through — at-most one). *)
  check lines_t "prefix from a" [ "a0"; "a1"; "a2" ] (List.filteri (fun i _ -> i < 3) got);
  let after = List.filteri (fun i _ -> i >= 3) got in
  let b_items = List.filter (Eden_util.Text.is_prefix ~prefix:"b") after in
  check lines_t "b fully delivered after switch" [ "b0"; "b1" ] b_items;
  Alcotest.(check bool) "at most one straggler from a" true
    (List.length after - List.length b_items <= 1)

let test_redirect_cost_is_one_hop () =
  (* The indirection costs exactly one extra invocation per datum. *)
  let n_items = 16 in
  let run ~redirected =
    let k = Kernel.create () in
    let src = Dev.text_source k (List.init n_items string_of_int) in
    let upstream =
      if redirected then Redirect.create k ~initial:src () else src
    in
    let before = Kernel.Meter.snapshot k in
    let sink = Stage.sink_ro k ~upstream ignore in
    Kernel.poke k sink;
    Kernel.run k;
    (Kernel.Meter.diff (Kernel.Meter.snapshot k) before).Kernel.Meter.invocations
  in
  let direct = run ~redirected:false and via = run ~redirected:true in
  Alcotest.(check bool)
    (Printf.sprintf "direct %d, via redirector %d" direct via)
    true
    (via >= (2 * direct) - 2 && via <= (2 * direct) + 2)

let test_redirector_in_pipeline () =
  (* Redirection composes with ordinary filters: the filter never
     learns its input moved. *)
  let k = Kernel.create () in
  (* The old source must not hit end of stream before the switch (the
     documented constraint), so give it plenty. *)
  let a = Dev.text_source k (List.init 50 (fun i -> Printf.sprintf "one%d" i)) in
  let b = Dev.text_source k [ "two"; "three" ] in
  let r = Redirect.create k ~initial:a () in
  let f = Stage.filter_ro k ~upstream:r Eden_filters.Catalog.upcase in
  let out = ref [] in
  Kernel.run_driver k (fun ctx ->
      let pull = Pull.connect ctx f in
      (match Pull.read pull with Some v -> out := Value.to_str v :: !out | None -> ());
      Redirect.set_source ctx ~redirector:r b;
      Pull.iter (fun v -> out := Value.to_str v :: !out) pull);
  let got = List.rev !out in
  check Alcotest.string "first item from a, upcased" "ONE0" (List.hd got);
  let from_b = List.filter (Eden_util.Text.is_prefix ~prefix:"T") got in
  check lines_t "b's items delivered through the filter" [ "TWO"; "THREE" ] from_b

(* --- rendezvous ------------------------------------------------------ *)

let test_rendezvous_basic () =
  let s = Eden_sched.Sched.create () in
  let ch = Rendezvous.create () in
  let log = ref [] in
  ignore
    (Eden_sched.Sched.spawn s ~name:"consumer" (fun () ->
         for _ = 1 to 3 do
           log := Rendezvous.recv ch :: !log
         done));
  ignore
    (Eden_sched.Sched.spawn s ~name:"producer" (fun () ->
         List.iter (Rendezvous.send ch) [ 1; 2; 3 ]));
  Eden_sched.Sched.run s;
  Eden_sched.Sched.check_failures s;
  check Alcotest.(list int) "in order" [ 1; 2; 3 ] (List.rev !log)

let test_rendezvous_blocks_sender () =
  (* No buffering: the sender cannot run ahead of the receiver. *)
  let s = Eden_sched.Sched.create () in
  let ch = Rendezvous.create () in
  let sent = ref 0 in
  ignore
    (Eden_sched.Sched.spawn s (fun () ->
         for i = 1 to 5 do
           Rendezvous.send ch i;
           sent := i
         done));
  ignore
    (Eden_sched.Sched.spawn s (fun () ->
         ignore (Rendezvous.recv ch);
         ignore (Rendezvous.recv ch)));
  Eden_sched.Sched.run s;
  (* Two receives completed; the third send is parked: sent <= 3. *)
  Alcotest.(check bool) "sender gated by receiver" true (!sent <= 3);
  check Alcotest.int "one sender parked" 1 (Rendezvous.waiting_senders ch)

let test_rendezvous_try_ops () =
  let s = Eden_sched.Sched.create () in
  let ch = Rendezvous.create () in
  Alcotest.(check bool) "try_send with nobody" false (Rendezvous.try_send ch 1);
  check Alcotest.(option int) "try_recv with nobody" None (Rendezvous.try_recv ch);
  ignore (Eden_sched.Sched.spawn s (fun () -> Rendezvous.send ch 9));
  Eden_sched.Sched.run s;
  check Alcotest.(option int) "try_recv takes parked sender" (Some 9) (Rendezvous.try_recv ch);
  Eden_sched.Sched.run s;
  Eden_sched.Sched.check_failures s

let test_rendezvous_many_senders_fifo () =
  let s = Eden_sched.Sched.create () in
  let ch = Rendezvous.create () in
  for i = 1 to 4 do
    ignore (Eden_sched.Sched.spawn s (fun () -> Rendezvous.send ch i))
  done;
  let got = ref [] in
  ignore
    (Eden_sched.Sched.spawn s (fun () ->
         for _ = 1 to 4 do
           got := Rendezvous.recv ch :: !got
         done));
  Eden_sched.Sched.run s;
  Eden_sched.Sched.check_failures s;
  check Alcotest.(list int) "fifo among senders" [ 1; 2; 3; 4 ] (List.rev !got)

let suite =
  [
    ("redirector transparent", `Quick, test_redirector_transparent);
    ("redirect mid-stream", `Quick, test_redirect_mid_stream);
    ("redirect costs one hop", `Quick, test_redirect_cost_is_one_hop);
    ("redirector in pipeline", `Quick, test_redirector_in_pipeline);
    ("rendezvous basic", `Quick, test_rendezvous_basic);
    ("rendezvous blocks sender", `Quick, test_rendezvous_blocks_sender);
    ("rendezvous try ops", `Quick, test_rendezvous_try_ops);
    ("rendezvous many senders fifo", `Quick, test_rendezvous_many_senders_fifo);
  ]
