(* Direct unit tests of Port and Intake on bare fibers — the handler
   protocol exercised without kernel or network in the way. *)

open Eden_kernel
open Eden_transput
module Sched = Eden_sched.Sched

let check = Alcotest.check

(* Run a Transfer against a port's handler from inside a fiber. *)
let transfer handlers chan credit =
  let h = List.assoc Proto.transfer_op handlers in
  Proto.parse_transfer_reply (h (Proto.transfer_request chan ~credit))

let deposit handlers chan ~eos items =
  let h = List.assoc Proto.deposit_op handlers in
  ignore (h (Proto.deposit_request chan ~eos items))

let in_fiber f =
  let s = Sched.create () in
  ignore (Sched.spawn s ~name:"test" f);
  Sched.run s;
  Sched.check_failures s;
  s

let test_transfer_served_from_buffer () =
  ignore
    (in_fiber (fun () ->
         let port = Port.create () in
         let w = Port.add_channel port ~capacity:8 Channel.output in
         List.iter (fun i -> Port.write w (Value.Int i)) [ 1; 2; 3 ];
         let r = transfer (Port.handlers port) Channel.output 2 in
         Alcotest.(check bool) "not eos" false r.Proto.eos;
         check Alcotest.int "two items (credit-limited)" 2 (List.length r.Proto.items);
         check Alcotest.int "buffer keeps the rest" 1 (Port.buffered w)))

let test_transfer_credit_larger_than_buffer () =
  ignore
    (in_fiber (fun () ->
         let port = Port.create () in
         let w = Port.add_channel port ~capacity:8 Channel.output in
         Port.write w (Value.Int 1);
         Port.close w;
         let r = transfer (Port.handlers port) Channel.output 10 in
         Alcotest.(check bool) "eos piggybacked" true r.Proto.eos;
         check Alcotest.int "one item" 1 (List.length r.Proto.items)))

let test_transfer_on_closed_empty () =
  ignore
    (in_fiber (fun () ->
         let port = Port.create () in
         let w = Port.add_channel port ~capacity:1 Channel.output in
         Port.close w;
         let r = transfer (Port.handlers port) Channel.output 1 in
         Alcotest.(check bool) "eos, empty" true (r.Proto.eos && r.Proto.items = [])))

let test_write_after_close_fails () =
  ignore
    (in_fiber (fun () ->
         let port = Port.create () in
         let w = Port.add_channel port ~capacity:1 Channel.output in
         Port.close w;
         Alcotest.(check bool) "raises" true
           (try
              Port.write w (Value.Int 1);
              false
            with Failure _ -> true)))

let test_close_idempotent () =
  ignore
    (in_fiber (fun () ->
         let port = Port.create () in
         let w = Port.add_channel port ~capacity:1 Channel.output in
         Port.close w;
         Port.close w;
         Alcotest.(check bool) "closed" true (Port.is_closed w)))

let test_duplicate_channel_rejected () =
  let port = Port.create () in
  ignore (Port.add_channel port Channel.output);
  Alcotest.(check bool) "rejected" true
    (try
       ignore (Port.add_channel port Channel.output);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "negative capacity rejected" true
    (try
       ignore (Port.add_channel port ~capacity:(-1) (Channel.Num 5));
       false
     with Invalid_argument _ -> true)

let test_writer_lookup () =
  let port = Port.create () in
  let w = Port.add_channel port (Channel.Num 3) in
  Alcotest.(check bool) "found" true (Port.writer port (Channel.Num 3) == w);
  Alcotest.(check bool) "missing raises" true
    (try
       ignore (Port.writer port (Channel.Num 9));
       false
     with Not_found -> true)

let test_transfer_blocks_until_write () =
  let s = Sched.create () in
  let port = Port.create () in
  let w = Port.add_channel port ~capacity:0 Channel.output in
  let got = ref None in
  ignore
    (Sched.spawn s ~name:"reader" (fun () ->
         got := Some (transfer (Port.handlers port) Channel.output 1)));
  ignore
    (Sched.spawn s ~name:"writer" (fun () ->
         Sched.sleep 5.0;
         Port.write w (Value.Str "late")));
  Sched.run s;
  Sched.check_failures s;
  match !got with
  | Some r -> check Alcotest.int "one item after wait" 1 (List.length r.Proto.items)
  | None -> Alcotest.fail "transfer never completed"

let test_intake_deposit_then_read () =
  ignore
    (in_fiber (fun () ->
         let intake = Intake.create () in
         let r = Intake.add_channel intake ~capacity:4 Channel.output in
         deposit (Intake.handlers intake) Channel.output ~eos:false
           [ Value.Int 1; Value.Int 2 ];
         check Alcotest.int "buffered" 2 (Intake.buffered r);
         Alcotest.(check bool) "read 1" true (Intake.read r = Some (Value.Int 1));
         Alcotest.(check bool) "read 2" true (Intake.read r = Some (Value.Int 2));
         deposit (Intake.handlers intake) Channel.output ~eos:true [];
         Alcotest.(check bool) "eos -> None" true (Intake.read r = None);
         Alcotest.(check bool) "eos seen" true (Intake.eos_seen r)))

let test_intake_unknown_channel () =
  ignore
    (in_fiber (fun () ->
         let intake = Intake.create () in
         ignore (Intake.add_channel intake Channel.output);
         Alcotest.(check bool) "refused" true
           (try
              deposit (Intake.handlers intake) (Channel.Num 9) ~eos:false [ Value.Int 1 ];
              false
            with Kernel.Eden_error _ -> true)))

let test_intake_capacity_bounds () =
  let intake = Intake.create () in
  Alcotest.(check bool) "zero capacity rejected" true
    (try
       ignore (Intake.add_channel intake ~capacity:0 Channel.output);
       false
     with Invalid_argument _ -> true)

let test_intake_read_blocks_until_deposit () =
  let s = Sched.create () in
  let intake = Intake.create () in
  let r = Intake.add_channel intake ~capacity:1 Channel.output in
  let got = ref None in
  ignore (Sched.spawn s ~name:"consumer" (fun () -> got := Intake.read r));
  ignore
    (Sched.spawn s ~name:"producer" (fun () ->
         Sched.sleep 3.0;
         deposit (Intake.handlers intake) Channel.output ~eos:false [ Value.Str "x" ]));
  Sched.run s;
  Sched.check_failures s;
  Alcotest.(check bool) "woken with the deposit" true (!got = Some (Value.Str "x"))

let test_port_two_channels_independent_eos () =
  ignore
    (in_fiber (fun () ->
         let port = Port.create () in
         let a = Port.add_channel port ~capacity:2 (Channel.Num 1) in
         let b = Port.add_channel port ~capacity:2 (Channel.Num 2) in
         Port.write a (Value.Int 1);
         Port.close a;
         Port.write b (Value.Int 2);
         let ra = transfer (Port.handlers port) (Channel.Num 1) 5 in
         let rb = transfer (Port.handlers port) (Channel.Num 2) 5 in
         Alcotest.(check bool) "a closed" true ra.Proto.eos;
         Alcotest.(check bool) "b still open" false rb.Proto.eos))

(* A retaining channel serves a stamped request from its position
   without discarding, so a retried request gets the same items; a
   request at a later position acknowledges everything below it. *)
let test_retaining_channel_reserves_until_acked () =
  let stamped handlers ~seq credit =
    let h = List.assoc Proto.transfer_op handlers in
    Proto.parse_transfer_reply_base (h (Proto.transfer_request ~seq Channel.output ~credit))
  in
  ignore
    (in_fiber (fun () ->
         let port = Port.create () in
         let w = Port.add_channel port ~capacity:8 ~retain:true Channel.output in
         List.iter (fun i -> Port.write w (Value.Int i)) [ 1; 2; 3 ];
         let h = Port.handlers port in
         let first = stamped h ~seq:0 2 in
         let again = stamped h ~seq:0 2 in
         Alcotest.(check bool) "retried request re-served" true (first = again);
         check Alcotest.int "nothing discarded yet" 3 (Port.buffered w);
         let r, base = stamped h ~seq:2 2 in
         check Alcotest.(option int) "reply based at its seq" (Some 2) base;
         Alcotest.(check bool) "the rest" true (r.Proto.items = [ Value.Int 3 ]);
         check Alcotest.int "acknowledged prefix trimmed" 1 (Port.buffered w);
         check Alcotest.int "cursor at the acknowledgement" 2 (Port.cursor w);
         (match stamped h ~seq:0 1 with
         | _ -> Alcotest.fail "a request below the acknowledgement must be refused"
         | exception Kernel.Eden_error _ -> ());
         let copy = Port.add_channel (Port.create ()) ~retain:true Channel.output in
         Port.load copy (Port.encode w);
         check Alcotest.int "restored cursor" 2 (Port.cursor copy);
         check Alcotest.int "restored window" 1 (Port.buffered copy)))

let test_intake_admit_rule () =
  let items = List.init 4 (fun i -> Value.Int i) in
  let admit seq = Intake.admit ~expected:5 ~seq items in
  Alcotest.(check bool) "replayed prefix dropped" true (admit 3 = Some [ Value.Int 2; Value.Int 3 ]);
  Alcotest.(check bool) "in step: all fresh" true (admit 5 = Some items);
  Alcotest.(check bool) "wholly replayed: nothing fresh" true (admit 0 = Some []);
  Alcotest.(check bool) "gap rejected" true (admit 6 = None)

(* Window against a list model: any sequence of appends, trims and
   takes keeps [base, next) and the held items in step. *)
let prop_window_model =
  Seed.to_alcotest
    (QCheck2.Test.make ~name:"window agrees with a list model" ~count:200
       QCheck2.Gen.(list (pair (int_range 0 2) (int_range 0 6)))
       (fun ops ->
         let w = Window.create ~base:3 () in
         let base = ref 3 and held = ref [] and pushed = ref 0 in
         let rec drop n l = if n <= 0 then l else match l with [] -> [] | _ :: r -> drop (n - 1) r in
         List.for_all
           (fun (op, k) ->
             (match op with
             | 0 ->
                 Window.push w !pushed;
                 held := !held @ [ !pushed ];
                 incr pushed
             | 1 ->
                 let a = !base + k - 2 in
                 Window.trim w a;
                 let n = max 0 (min (a - !base) (List.length !held)) in
                 held := drop n !held;
                 base := !base + n
             | _ ->
                 let got = Window.take w k in
                 let n = min k (List.length !held) in
                 if got <> List.filteri (fun i _ -> i < n) !held then failwith "take";
                 held := drop n !held;
                 base := !base + n);
             Window.base w = !base
             && Window.next w = !base + List.length !held
             && Window.to_list w = !held
             && Window.sub w (!base + 1) 2 = List.filteri (fun i _ -> i >= 1 && i < 3) !held)
           ops))

let suite =
  [
    ("transfer served from buffer", `Quick, test_transfer_served_from_buffer);
    ("credit larger than buffer", `Quick, test_transfer_credit_larger_than_buffer);
    ("transfer on closed empty", `Quick, test_transfer_on_closed_empty);
    ("write after close fails", `Quick, test_write_after_close_fails);
    ("close idempotent", `Quick, test_close_idempotent);
    ("duplicate channel rejected", `Quick, test_duplicate_channel_rejected);
    ("writer lookup", `Quick, test_writer_lookup);
    ("transfer blocks until write", `Quick, test_transfer_blocks_until_write);
    ("intake deposit then read", `Quick, test_intake_deposit_then_read);
    ("intake unknown channel", `Quick, test_intake_unknown_channel);
    ("intake capacity bounds", `Quick, test_intake_capacity_bounds);
    ("intake read blocks until deposit", `Quick, test_intake_read_blocks_until_deposit);
    ("two channels independent eos", `Quick, test_port_two_channels_independent_eos);
    ("retaining channel re-serves until acked", `Quick, test_retaining_channel_reserves_until_acked);
    ("intake admit: drop replayed prefix, reject gap", `Quick, test_intake_admit_rule);
    prop_window_model;
  ]
