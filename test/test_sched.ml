(* Tests for the cooperative scheduler and its synchronisation
   primitives.  Determinism is load-bearing for the whole reproduction,
   so several tests assert exact schedules. *)

open Eden_sched

let check = Alcotest.check
let prop name ?(count = 100) gen f =
  Seed.to_alcotest (QCheck2.Test.make ~name ~count gen f)

let run_ok t =
  Sched.run t;
  Sched.check_failures t

(* ------------------------------------------------------------------ *)
(* Basic fiber mechanics                                              *)
(* ------------------------------------------------------------------ *)

let test_spawn_runs () =
  let t = Sched.create () in
  let hit = ref false in
  ignore (Sched.spawn t (fun () -> hit := true));
  run_ok t;
  Alcotest.(check bool) "body ran" true !hit

let test_fifo_order () =
  let t = Sched.create () in
  let log = ref [] in
  for i = 1 to 5 do
    ignore (Sched.spawn t (fun () -> log := i :: !log))
  done;
  run_ok t;
  check Alcotest.(list int) "spawn order preserved" [ 1; 2; 3; 4; 5 ] (List.rev !log)

let test_yield_interleaves () =
  let t = Sched.create () in
  let log = Buffer.create 16 in
  let worker c () =
    for _ = 1 to 3 do
      Buffer.add_char log c;
      Sched.yield ()
    done
  in
  ignore (Sched.spawn t (worker 'a'));
  ignore (Sched.spawn t (worker 'b'));
  run_ok t;
  check Alcotest.string "round robin" "ababab" (Buffer.contents log)

let test_sleep_orders_by_time () =
  let t = Sched.create () in
  let log = ref [] in
  let napper label d () =
    Sched.sleep d;
    log := label :: !log
  in
  ignore (Sched.spawn t (napper "slow" 3.0));
  ignore (Sched.spawn t (napper "fast" 1.0));
  ignore (Sched.spawn t (napper "mid" 2.0));
  run_ok t;
  check Alcotest.(list string) "time order" [ "fast"; "mid"; "slow" ] (List.rev !log);
  check (Alcotest.float 1e-9) "clock at last wake" 3.0 (Sched.now t)

let test_virtual_time_jumps () =
  let t = Sched.create () in
  ignore (Sched.spawn t (fun () -> Sched.sleep 1000.0));
  run_ok t;
  check (Alcotest.float 1e-9) "jumped, not waited" 1000.0 (Sched.now t)

let test_nested_sleep_accumulates () =
  let t = Sched.create () in
  let seen = ref [] in
  ignore
    (Sched.spawn t (fun () ->
         Sched.sleep 1.5;
         seen := Sched.time () :: !seen;
         Sched.sleep 2.5;
         seen := Sched.time () :: !seen));
  run_ok t;
  check Alcotest.(list (float 1e-9)) "timestamps" [ 4.0; 1.5 ] !seen

let test_failure_recorded () =
  let t = Sched.create () in
  ignore (Sched.spawn t ~name:"bad" (fun () -> failwith "boom"));
  Sched.run t;
  match Sched.failures t with
  | [ ("bad", Failure msg) ] when msg = "boom" -> ()
  | _ -> Alcotest.fail "expected one failure from fiber bad"

let test_check_failures_raises () =
  let t = Sched.create () in
  ignore (Sched.spawn t ~name:"bad" (fun () -> failwith "boom"));
  Sched.run t;
  Alcotest.(check bool) "raises" true
    (try
       Sched.check_failures t;
       false
     with Failure _ -> true)

let test_live_count () =
  let t = Sched.create () in
  ignore (Sched.spawn t (fun () -> ()));
  ignore (Sched.spawn t (fun () -> Sched.sleep 1.0));
  check Alcotest.int "two live before run" 2 (Sched.live_count t);
  run_ok t;
  check Alcotest.int "none live after" 0 (Sched.live_count t)

let test_spawn_inside () =
  let t = Sched.create () in
  let log = ref [] in
  ignore
    (Sched.spawn t ~name:"parent" (fun () ->
         log := "parent" :: !log;
         ignore
           (Sched.spawn_inside ~name:"child" (fun () ->
                log := ("child of " ^ Sched.self_name ()) :: !log));
         Sched.yield ()));
  run_ok t;
  check Alcotest.(list string) "child ran" [ "parent"; "child of child" ] (List.rev !log)

let test_run_until_stops_clock () =
  let t = Sched.create () in
  let fired = ref false in
  Sched.timer t 10.0 (fun () -> fired := true);
  Sched.run_until t 5.0;
  Alcotest.(check bool) "timer pending" false !fired;
  check (Alcotest.float 1e-9) "clock advanced to limit" 5.0 (Sched.now t);
  Sched.run t;
  Alcotest.(check bool) "fires later" true !fired

let test_step_granularity () =
  let t = Sched.create () in
  let count = ref 0 in
  ignore (Sched.spawn t (fun () -> incr count));
  ignore (Sched.spawn t (fun () -> incr count));
  Alcotest.(check bool) "first step" true (Sched.step t);
  check Alcotest.int "one fiber ran" 1 !count;
  Alcotest.(check bool) "second step" true (Sched.step t);
  Alcotest.(check bool) "quiescent" false (Sched.step t)

(* ------------------------------------------------------------------ *)
(* Ordering contract (see the sched.mli header)                       *)
(* ------------------------------------------------------------------ *)

(* Rule 5: the [run_until] boundary is inclusive — a timer due exactly
   at the limit fires, and the clock ends at exactly the limit either
   way. *)
let test_run_until_boundary_inclusive () =
  let t = Sched.create () in
  let log = ref [] in
  Sched.timer t 5.0 (fun () -> log := "at" :: !log);
  Sched.timer t 5.0 (fun () -> log := "at2" :: !log);
  Sched.timer t 5.000001 (fun () -> log := "after" :: !log);
  Sched.run_until t 5.0;
  check
    Alcotest.(list string)
    "timers due exactly at the limit fired, in insertion order" [ "at"; "at2" ]
    (List.rev !log);
  check (Alcotest.float 1e-12) "clock is exactly the limit" 5.0 (Sched.now t);
  Sched.run t;
  check Alcotest.(list string) "later timer still fired" [ "at"; "at2"; "after" ]
    (List.rev !log)

(* Rule 2: tied timers fire in insertion order, interleaved correctly
   with non-tied ones. *)
let test_timer_tie_insertion_order () =
  let t = Sched.create () in
  let log = ref [] in
  Sched.timer t 2.0 (fun () -> log := "b1" :: !log);
  Sched.timer t 1.0 (fun () -> log := "a" :: !log);
  Sched.timer t 2.0 (fun () -> log := "b2" :: !log);
  Sched.timer t 2.0 (fun () -> log := "b3" :: !log);
  Sched.run t;
  check Alcotest.(list string) "deadline order, ties by insertion" [ "a"; "b1"; "b2"; "b3" ]
    (List.rev !log)

(* Rule 1: while a fiber is runnable no timer fires, even one already
   due. *)
let test_runnable_before_timers () =
  let t = Sched.create () in
  let log = ref [] in
  Sched.timer t 0.0 (fun () -> log := "timer" :: !log);
  ignore (Sched.spawn t (fun () -> log := "fiber1" :: !log));
  ignore (Sched.spawn t (fun () -> log := "fiber2" :: !log));
  Alcotest.(check bool) "step 1 runs a fiber" true (Sched.step t);
  Alcotest.(check bool) "step 2 runs a fiber" true (Sched.step t);
  check Alcotest.(list string) "both fibers before the due timer" [ "fiber1"; "fiber2" ]
    (List.rev !log);
  Alcotest.(check bool) "step 3 fires the timer" true (Sched.step t);
  check Alcotest.(list string) "timer last" [ "fiber1"; "fiber2"; "timer" ] (List.rev !log)

(* Rules 3/4: a chooser that always answers 0 is indistinguishable from
   no chooser at all — the FIFO baseline is the all-zero schedule. *)
let contract_scenario chooser =
  let t = Sched.create () in
  Sched.set_chooser t chooser;
  let log = ref [] in
  for i = 1 to 3 do
    ignore
      (Sched.spawn t (fun () ->
           log := Printf.sprintf "start%d" i :: !log;
           Sched.yield ();
           log := Printf.sprintf "mid%d" i :: !log;
           Sched.sleep (float_of_int (4 - i));
           log := Printf.sprintf "end%d" i :: !log))
  done;
  Sched.timer t 2.0 (fun () -> log := "tick" :: !log);
  Sched.run t;
  Sched.check_failures t;
  List.rev !log

let test_zero_chooser_is_fifo () =
  let baseline = contract_scenario None in
  let zeroed = contract_scenario (Some (fun ~kind:_ ~ids:_ -> 0)) in
  check Alcotest.(list string) "all-zero chooser = FIFO baseline" baseline zeroed

(* A chooser is only consulted at real decision points (n >= 2), and an
   out-of-range answer is rejected. *)
let test_chooser_consultation_and_range () =
  let picks = ref [] in
  let chooser = Some (fun ~kind ~ids ->
      picks := (kind, Array.length ids) :: !picks;
      0)
  in
  ignore (contract_scenario chooser);
  Alcotest.(check bool) "only multi-way picks reported" true
    (List.for_all (fun (_, n) -> n >= 2) !picks);
  Alcotest.(check bool) "run-queue picks seen" true
    (List.exists (fun (k, _) -> k = "sched.run") !picks);
  let t = Sched.create () in
  Sched.set_chooser t (Some (fun ~kind:_ ~ids -> Array.length ids));
  ignore (Sched.spawn t ignore);
  ignore (Sched.spawn t ignore);
  match Sched.run t with
  | () -> Alcotest.fail "out-of-range pick accepted"
  | exception Invalid_argument _ -> ()

(* A chooser can reverse the run queue: the legal reordering is real,
   and unchosen fibers keep their relative order. *)
let test_chooser_reverses_runq () =
  let t = Sched.create () in
  Sched.set_chooser t (Some (fun ~kind ~ids ->
      match kind with "sched.run" -> Array.length ids - 1 | _ -> 0));
  let log = ref [] in
  for i = 1 to 3 do
    ignore (Sched.spawn t (fun () -> log := i :: !log))
  done;
  Sched.run t;
  check Alcotest.(list int) "last-spawned runs first" [ 3; 2; 1 ] (List.rev !log)

(* Timer ties are a decision point too: picking index 1 fires the
   second-inserted tied timer first, and only tied timers are offered. *)
let test_chooser_timer_ties () =
  let t = Sched.create () in
  let offered = ref [] in
  Sched.set_chooser t (Some (fun ~kind ~ids ->
      if kind = "sched.timer" then begin
        offered := Array.length ids :: !offered;
        1
      end
      else 0));
  let log = ref [] in
  Sched.timer t 1.0 (fun () -> log := "t1" :: !log);
  Sched.timer t 1.0 (fun () -> log := "t2" :: !log);
  Sched.timer t 2.0 (fun () -> log := "t3" :: !log);
  Sched.run t;
  check Alcotest.(list int) "one 2-way tie offered" [ 2 ] !offered;
  check Alcotest.(list string) "tie broken towards insertion index 1" [ "t2"; "t1"; "t3" ]
    (List.rev !log)

(* Note hooks: notes flow to the installed hook and are free without
   one. *)
let test_note_hook () =
  let t = Sched.create () in
  Sched.note t ~kind:"free" ~arg:0;
  let seen = ref [] in
  Sched.set_note_hook t (Some (fun ~kind ~arg -> seen := (kind, arg) :: !seen));
  Sched.note t ~kind:"net.loss" ~arg:1;
  Sched.note t ~kind:"credit.take" ~arg:3;
  Sched.set_note_hook t None;
  Sched.note t ~kind:"late" ~arg:9;
  check
    Alcotest.(list (pair string int))
    "hook saw exactly the hooked notes"
    [ ("net.loss", 1); ("credit.take", 3) ]
    (List.rev !seen)

(* ------------------------------------------------------------------ *)
(* Blocking & deadlock reporting                                      *)
(* ------------------------------------------------------------------ *)

let test_blocked_listing () =
  let t = Sched.create () in
  let mb : int Mailbox.t = Mailbox.create ~label:"lonely" () in
  ignore (Sched.spawn t ~name:"waiter" (fun () -> ignore (Mailbox.receive mb)));
  Sched.run t;
  check
    Alcotest.(list (pair string string))
    "blocked fiber visible"
    [ ("waiter", "lonely") ]
    (Sched.blocked t)

let test_finished_fibers_untracked () =
  (* Regression: finished fibers used to linger in the scheduler's fiber
     table forever; they must be dropped the moment they finish. *)
  let t = Sched.create () in
  let fids =
    List.init 3 (fun i -> Sched.spawn t (fun () -> Sched.sleep (float_of_int i)))
  in
  List.iter
    (fun fid -> Alcotest.(check bool) "tracked before run" true (Sched.is_live t fid))
    fids;
  run_ok t;
  check Alcotest.int "no finished fibers retained" 0 (Sched.tracked_count t);
  List.iter
    (fun fid -> Alcotest.(check bool) "untracked once finished" false (Sched.is_live t fid))
    fids

let test_blocked_info_ids_match () =
  let t = Sched.create () in
  let mb : int Mailbox.t = Mailbox.create ~label:"lonely" () in
  let fid = Sched.spawn t ~name:"waiter" (fun () -> ignore (Mailbox.receive mb)) in
  Sched.run t;
  match Sched.blocked_info t with
  | [ (id, name, reason) ] ->
      check Alcotest.int "fiber id" fid id;
      check Alcotest.string "name" "waiter" name;
      check Alcotest.string "reason" "lonely" reason;
      Alcotest.(check bool) "blocked fiber still tracked" true (Sched.is_live t fid)
  | l -> Alcotest.failf "expected 1 blocked fiber, got %d" (List.length l)

let test_cancel_blocked_fiber () =
  let t = Sched.create () in
  let mb : int Mailbox.t = Mailbox.create () in
  let cleanup = ref false in
  let fid =
    Sched.spawn t ~name:"victim" (fun () ->
        match Mailbox.receive mb with
        | exception Sched.Cancelled ->
            cleanup := true;
            raise Sched.Cancelled
        | _ -> ())
  in
  Sched.run t;
  check Alcotest.int "blocked" 1 (List.length (Sched.blocked t));
  Sched.cancel t fid;
  Sched.run t;
  Alcotest.(check bool) "cancellation observed" true !cleanup;
  check Alcotest.int "no longer blocked" 0 (List.length (Sched.blocked t));
  Sched.check_failures t

let test_cancel_before_first_run () =
  let t = Sched.create () in
  let ran = ref false in
  let fid = Sched.spawn t (fun () -> ran := true) in
  Sched.cancel t fid;
  run_ok t;
  Alcotest.(check bool) "body never ran" false !ran

let test_cancel_finished_noop () =
  let t = Sched.create () in
  let fid = Sched.spawn t (fun () -> ()) in
  run_ok t;
  Sched.cancel t fid;
  run_ok t

(* ------------------------------------------------------------------ *)
(* Ivar                                                               *)
(* ------------------------------------------------------------------ *)

let test_ivar_fill_then_read () =
  let t = Sched.create () in
  let iv = Ivar.create () in
  Ivar.fill iv 42;
  let got = ref 0 in
  ignore (Sched.spawn t (fun () -> got := Ivar.read iv));
  run_ok t;
  check Alcotest.int "read" 42 !got

let test_ivar_read_blocks_until_fill () =
  let t = Sched.create () in
  let iv = Ivar.create () in
  let got = ref 0 in
  ignore (Sched.spawn t ~name:"reader" (fun () -> got := Ivar.read iv));
  ignore
    (Sched.spawn t ~name:"writer" (fun () ->
         Sched.sleep 2.0;
         Ivar.fill iv 7));
  run_ok t;
  check Alcotest.int "read after fill" 7 !got

let test_ivar_double_fill () =
  let iv = Ivar.create () in
  Ivar.fill iv 1;
  Alcotest.(check bool) "try_fill fails" false (Ivar.try_fill iv 2);
  Alcotest.check_raises "fill raises" (Failure "Ivar.fill: already filled") (fun () ->
      Ivar.fill iv 3);
  check Alcotest.(option int) "value unchanged" (Some 1) (Ivar.peek iv)

let test_ivar_many_readers () =
  let t = Sched.create () in
  let iv = Ivar.create () in
  let sum = ref 0 in
  for _ = 1 to 5 do
    ignore (Sched.spawn t (fun () -> sum := !sum + Ivar.read iv))
  done;
  ignore (Sched.spawn t (fun () -> Ivar.fill iv 10));
  run_ok t;
  check Alcotest.int "all readers woken" 50 !sum

let test_ivar_timeout_expires () =
  let t = Sched.create () in
  let iv : int Ivar.t = Ivar.create () in
  let got = ref (Some 99) in
  ignore (Sched.spawn t (fun () -> got := Ivar.read_timeout t iv 5.0));
  run_ok t;
  check Alcotest.(option int) "timed out" None !got;
  check (Alcotest.float 1e-9) "waited 5" 5.0 (Sched.now t)

let test_ivar_timeout_beaten_by_fill () =
  let t = Sched.create () in
  let iv = Ivar.create () in
  let got = ref None in
  ignore (Sched.spawn t (fun () -> got := Ivar.read_timeout t iv 5.0));
  ignore
    (Sched.spawn t (fun () ->
         Sched.sleep 1.0;
         Ivar.fill iv 3));
  run_ok t;
  check Alcotest.(option int) "filled in time" (Some 3) !got

(* ------------------------------------------------------------------ *)
(* Mailbox                                                            *)
(* ------------------------------------------------------------------ *)

let test_mailbox_fifo () =
  let t = Sched.create () in
  let mb = Mailbox.create () in
  let log = ref [] in
  ignore
    (Sched.spawn t (fun () ->
         for _ = 1 to 3 do
           log := Mailbox.receive mb :: !log
         done));
  List.iter (Mailbox.send mb) [ "x"; "y"; "z" ];
  run_ok t;
  check Alcotest.(list string) "fifo" [ "x"; "y"; "z" ] (List.rev !log)

let test_mailbox_send_wakes () =
  let t = Sched.create () in
  let mb = Mailbox.create () in
  let got = ref 0 in
  ignore (Sched.spawn t (fun () -> got := Mailbox.receive mb));
  ignore
    (Sched.spawn t (fun () ->
         Sched.sleep 1.0;
         Mailbox.send mb 5));
  run_ok t;
  check Alcotest.int "woken with value" 5 !got

let test_mailbox_many_receivers () =
  let t = Sched.create () in
  let mb = Mailbox.create () in
  let total = ref 0 in
  for _ = 1 to 3 do
    ignore
      (Sched.spawn t (fun () ->
           let v = Mailbox.receive mb in
           total := !total + v))
  done;
  ignore
    (Sched.spawn t (fun () ->
         Mailbox.send mb 1;
         Mailbox.send mb 2;
         Mailbox.send mb 4));
  run_ok t;
  check Alcotest.int "each message consumed once" 7 !total

let test_mailbox_try_receive () =
  let mb = Mailbox.create () in
  check Alcotest.(option int) "empty" None (Mailbox.try_receive mb);
  Mailbox.send mb 1;
  check Alcotest.(option int) "one" (Some 1) (Mailbox.try_receive mb);
  check Alcotest.(option int) "drained" None (Mailbox.try_receive mb)

let test_mailbox_timeout () =
  let t = Sched.create () in
  let mb : int Mailbox.t = Mailbox.create () in
  let first = ref None and second = ref None in
  ignore
    (Sched.spawn t (fun () ->
         first := Mailbox.receive_timeout t mb 2.0;
         second := Mailbox.receive_timeout t mb 2.0));
  ignore
    (Sched.spawn t (fun () ->
         Sched.sleep 1.0;
         Mailbox.send mb 9));
  run_ok t;
  check Alcotest.(option int) "first arrives" (Some 9) !first;
  check Alcotest.(option int) "second times out" None !second

(* A timed-out [receive_timeout] leaves its waker in the mailbox's
   queue.  The next send must skip that stale waker and wake the
   receiver parked behind it, not spend its one wake on nobody. *)
let test_mailbox_timeout_no_lost_wakeup () =
  let t = Sched.create () in
  let mb : int Mailbox.t = Mailbox.create () in
  let a = ref (Some 0) and b = ref None in
  ignore (Sched.spawn t ~name:"A" (fun () -> a := Mailbox.receive_timeout t mb 1.0));
  ignore
    (Sched.spawn t ~name:"B" (fun () ->
         Sched.sleep 1.5;
         b := Some (Mailbox.receive mb)));
  ignore
    (Sched.spawn t ~name:"C" (fun () ->
         Sched.sleep 2.0;
         Mailbox.send mb 7));
  run_ok t;
  check Alcotest.(option int) "A timed out" None !a;
  check Alcotest.(list (pair string string)) "nobody left blocked" [] (Sched.blocked t);
  check Alcotest.(option int) "B received the message" (Some 7) !b;
  check Alcotest.int "mailbox drained" 0 (Mailbox.length mb)

(* ------------------------------------------------------------------ *)
(* Chan (bounded)                                                     *)
(* ------------------------------------------------------------------ *)

let test_chan_backpressure () =
  let t = Sched.create () in
  let ch = Chan.create ~capacity:2 in
  let produced = ref 0 and consumed = ref [] in
  ignore
    (Sched.spawn t ~name:"producer" (fun () ->
         for i = 1 to 5 do
           Chan.put ch i;
           produced := i
         done));
  ignore
    (Sched.spawn t ~name:"consumer" (fun () ->
         Sched.sleep 1.0;
         for _ = 1 to 5 do
           consumed := Chan.get ch :: !consumed
         done));
  Sched.run_until t 0.5;
  (* Producer must have stalled at the capacity limit. *)
  check Alcotest.int "producer blocked at capacity" 2 !produced;
  Sched.run t;
  Sched.check_failures t;
  check Alcotest.(list int) "all delivered in order" [ 1; 2; 3; 4; 5 ] (List.rev !consumed)

let test_chan_try_ops () =
  let ch = Chan.create ~capacity:1 in
  Alcotest.(check bool) "try_put ok" true (Chan.try_put ch 1);
  Alcotest.(check bool) "try_put full" false (Chan.try_put ch 2);
  check Alcotest.(option int) "try_get" (Some 1) (Chan.try_get ch);
  check Alcotest.(option int) "try_get empty" None (Chan.try_get ch)

let prop_chan_preserves_sequence =
  prop "bounded chan delivers exactly the sent sequence"
    QCheck2.Gen.(pair (int_range 1 4) (small_list (int_bound 100)))
    (fun (cap, xs) ->
      let t = Sched.create () in
      let ch = Chan.create ~capacity:cap in
      let out = ref [] in
      ignore (Sched.spawn t (fun () -> List.iter (Chan.put ch) xs));
      ignore
        (Sched.spawn t (fun () ->
             for _ = 1 to List.length xs do
               out := Chan.get ch :: !out
             done));
      Sched.run t;
      Sched.failures t = [] && List.rev !out = xs)

(* ------------------------------------------------------------------ *)
(* Semaphore & Waitgroup                                              *)
(* ------------------------------------------------------------------ *)

let test_semaphore_limits_concurrency () =
  let t = Sched.create () in
  let sem = Semaphore.create 2 in
  let active = ref 0 and peak = ref 0 in
  for _ = 1 to 6 do
    ignore
      (Sched.spawn t (fun () ->
           Semaphore.acquire sem;
           incr active;
           if !active > !peak then peak := !active;
           Sched.sleep 1.0;
           decr active;
           Semaphore.release sem))
  done;
  run_ok t;
  check Alcotest.int "at most 2 in section" 2 !peak

let test_semaphore_try () =
  let sem = Semaphore.create 1 in
  Alcotest.(check bool) "first ok" true (Semaphore.try_acquire sem);
  Alcotest.(check bool) "second fails" false (Semaphore.try_acquire sem);
  Semaphore.release sem;
  check Alcotest.int "available" 1 (Semaphore.available sem)

let test_waitgroup () =
  let t = Sched.create () in
  let wg = Waitgroup.create () in
  let done_ = ref false in
  Waitgroup.add wg 3;
  for _ = 1 to 3 do
    ignore
      (Sched.spawn t (fun () ->
           Sched.sleep 1.0;
           Waitgroup.finish wg))
  done;
  ignore
    (Sched.spawn t (fun () ->
         Waitgroup.wait wg;
         done_ := true));
  run_ok t;
  Alcotest.(check bool) "released after all finish" true !done_

let test_waitgroup_negative () =
  let wg = Waitgroup.create () in
  Alcotest.check_raises "underflow" (Failure "Waitgroup.finish: no outstanding tasks") (fun () ->
      Waitgroup.finish wg)

(* ------------------------------------------------------------------ *)
(* Determinism property                                               *)
(* ------------------------------------------------------------------ *)

let run_mixed_workload seed =
  (* A little zoo of interacting fibers; returns the event log.  Run
     twice with the same seed it must produce the same log. *)
  let g = Eden_util.Prng.create (Int64.of_int seed) in
  let t = Sched.create () in
  let log = Buffer.create 64 in
  let mb = Mailbox.create () in
  for i = 1 to 5 do
    let delay = Eden_util.Prng.float g 3.0 in
    ignore
      (Sched.spawn t (fun () ->
           Sched.sleep delay;
           Mailbox.send mb i;
           Buffer.add_string log (Printf.sprintf "s%d@%.3f;" i (Sched.time ()))))
  done;
  ignore
    (Sched.spawn t (fun () ->
         for _ = 1 to 5 do
           let v = Mailbox.receive mb in
           Buffer.add_string log (Printf.sprintf "r%d;" v)
         done));
  Sched.run t;
  Buffer.contents log

let prop_deterministic_schedule =
  prop "identical seeds give identical schedules" QCheck2.Gen.(int_bound 10_000) (fun seed ->
      run_mixed_workload seed = run_mixed_workload seed)

(* ------------------------------------------------------------------ *)
(* Timer-heap physical cancellation                                   *)
(* ------------------------------------------------------------------ *)

(* Regression: cancelled timers used to linger as tombstones until
   their deadline, so a cancel storm left the heap at storm size.  Now
   [cancel_timer] deletes physically and the heap returns to baseline
   immediately. *)
let test_timer_cancel_storm_returns_to_baseline () =
  let t = Sched.create () in
  Sched.timer t 1000.0 (fun () -> ());
  let baseline = Sched.timer_count t in
  check Alcotest.int "baseline" 1 baseline;
  let handles =
    List.init 10_000 (fun i ->
        Sched.timer_cancellable t (10.0 +. float_of_int i) (fun () ->
            Alcotest.fail "cancelled timer fired"))
  in
  check Alcotest.int "storm pending" (baseline + 10_000) (Sched.timer_count t);
  List.iter (fun h -> Sched.cancel_timer t h) handles;
  check Alcotest.int "storm cancelled physically" baseline (Sched.timer_count t);
  (* Cancelling again is a stale-handle no-op, not a second delete. *)
  List.iter (fun h -> Sched.cancel_timer t h) handles;
  check Alcotest.int "double cancel is a no-op" baseline (Sched.timer_count t);
  run_ok t;
  check Alcotest.int "drained" 0 (Sched.timer_count t)

(* The same property through the timeout combinators: an ivar/mailbox
   timeout that loses its race deletes its own timer, so a retry loop
   cannot accumulate heap entries. *)
let test_timeout_races_leave_no_tombstones () =
  let t = Sched.create () in
  let mb = Mailbox.create () in
  let got = ref 0 in
  ignore
    (Sched.spawn t (fun () ->
         for _ = 1 to 1_000 do
           match Mailbox.receive_timeout t mb 1e6 with
           | Some () -> incr got
           | None -> Alcotest.fail "timeout fired despite immediate send"
         done));
  ignore
    (Sched.spawn t (fun () ->
         for _ = 1 to 1_000 do
           Mailbox.send mb ();
           Sched.yield ()
         done));
  run_ok t;
  check Alcotest.int "all received" 1_000 !got;
  check Alcotest.int "no timeout tombstones" 0 (Sched.timer_count t)

(* [runnable] counts run-queue slices: spawned and woken fibers, not
   parked ones, and never pending timers. *)
let test_runnable_count () =
  let t = Sched.create () in
  check Alcotest.int "fresh scheduler" 0 (Sched.runnable t);
  let wake = ref ignore in
  ignore (Sched.spawn t (fun () -> Sched.suspend ~reason:"parked" (fun r -> wake := r)));
  ignore (Sched.spawn t (fun () -> Sched.yield ()));
  Sched.timer t 1.0 ignore;
  check Alcotest.int "two spawned fibers" 2 (Sched.runnable t);
  ignore (Sched.step t);
  check Alcotest.int "the first parked" 1 (Sched.runnable t);
  ignore (Sched.step t);
  check Alcotest.int "the second yielded: queued again" 1 (Sched.runnable t);
  ignore (Sched.step t);
  check Alcotest.int "the second finished; the timer does not count" 0 (Sched.runnable t);
  !wake ();
  check Alcotest.int "a woken fiber counts" 1 (Sched.runnable t);
  ignore (Sched.step t);
  check Alcotest.bool "then the timer fires" true (Sched.step t);
  check Alcotest.int "quiescent" 0 (Sched.runnable t);
  check Alcotest.bool "nothing left" false (Sched.step t)

let suite =
  [
    ("spawn runs", `Quick, test_spawn_runs);
    ("fifo order", `Quick, test_fifo_order);
    ("yield interleaves", `Quick, test_yield_interleaves);
    ("sleep orders by time", `Quick, test_sleep_orders_by_time);
    ("virtual time jumps", `Quick, test_virtual_time_jumps);
    ("nested sleeps accumulate", `Quick, test_nested_sleep_accumulates);
    ("failure recorded", `Quick, test_failure_recorded);
    ("check_failures raises", `Quick, test_check_failures_raises);
    ("live count", `Quick, test_live_count);
    ("spawn inside", `Quick, test_spawn_inside);
    ("run_until stops clock", `Quick, test_run_until_stops_clock);
    ("step granularity", `Quick, test_step_granularity);
    ("runnable count", `Quick, test_runnable_count);
    ("contract: run_until boundary inclusive", `Quick, test_run_until_boundary_inclusive);
    ("contract: timer ties by insertion", `Quick, test_timer_tie_insertion_order);
    ("contract: runnable before timers", `Quick, test_runnable_before_timers);
    ("contract: zero chooser is FIFO", `Quick, test_zero_chooser_is_fifo);
    ("contract: chooser consultation + range", `Quick, test_chooser_consultation_and_range);
    ("contract: chooser reverses run queue", `Quick, test_chooser_reverses_runq);
    ("contract: chooser breaks timer ties", `Quick, test_chooser_timer_ties);
    ("contract: note hook", `Quick, test_note_hook);
    ("blocked listing", `Quick, test_blocked_listing);
    ("finished fibers untracked", `Quick, test_finished_fibers_untracked);
    ("blocked_info ids match", `Quick, test_blocked_info_ids_match);
    ("cancel blocked fiber", `Quick, test_cancel_blocked_fiber);
    ("cancel before first run", `Quick, test_cancel_before_first_run);
    ("cancel finished is noop", `Quick, test_cancel_finished_noop);
    ("ivar fill then read", `Quick, test_ivar_fill_then_read);
    ("ivar read blocks", `Quick, test_ivar_read_blocks_until_fill);
    ("ivar double fill", `Quick, test_ivar_double_fill);
    ("ivar many readers", `Quick, test_ivar_many_readers);
    ("ivar timeout expires", `Quick, test_ivar_timeout_expires);
    ("ivar timeout beaten by fill", `Quick, test_ivar_timeout_beaten_by_fill);
    ("mailbox fifo", `Quick, test_mailbox_fifo);
    ("mailbox send wakes", `Quick, test_mailbox_send_wakes);
    ("mailbox many receivers", `Quick, test_mailbox_many_receivers);
    ("mailbox try_receive", `Quick, test_mailbox_try_receive);
    ("mailbox timeout", `Quick, test_mailbox_timeout);
    ("mailbox timeout: no lost wakeup", `Quick, test_mailbox_timeout_no_lost_wakeup);
    ("chan backpressure", `Quick, test_chan_backpressure);
    ("chan try ops", `Quick, test_chan_try_ops);
    ("semaphore limits concurrency", `Quick, test_semaphore_limits_concurrency);
    ("semaphore try", `Quick, test_semaphore_try);
    ("waitgroup", `Quick, test_waitgroup);
    ("waitgroup underflow", `Quick, test_waitgroup_negative);
    ("timer cancel storm returns heap to baseline", `Quick,
     test_timer_cancel_storm_returns_to_baseline);
    ("timeout races leave no tombstones", `Quick, test_timeout_races_leave_no_tombstones);
    prop_chan_preserves_sequence;
    prop_deterministic_schedule;
  ]
