module Kernel = Eden_kernel.Kernel
module Uid = Eden_kernel.Uid
module Sched = Eden_sched.Sched
module Prng = Eden_util.Prng
module Obs = Eden_obs.Obs

type policy = { interval : float; max_restarts : int; window : float }

let policy ?(interval = 5.0) ?(max_restarts = 5) ?(window = 200.0) () =
  if interval <= 0.0 then invalid_arg "Supervisor.policy: interval must be positive";
  if max_restarts < 1 then invalid_arg "Supervisor.policy: max_restarts must be at least 1";
  if window <= 0.0 then invalid_arg "Supervisor.policy: window must be positive";
  { interval; max_restarts; window }

let default_policy = policy ()

(* Delay before each poke, by consecutive restart count; jitter draws
   from a stream seeded at every activation of the supervisor. *)
let restart_backoff = Backoff.make ~base:0.5 ~multiplier:2.0 ~cap:8.0 ~jitter:0.1 ()
let seed = 0xC0FFEEL

type entry = {
  e_uid : Uid.t;
  label : string;
  mutable last_crashes : int;
  mutable restart_times : float list; (* inside the sliding window, newest first *)
  mutable consecutive : int;
  mutable gave_up : bool;
}

(* Shared between the driver handle and the behaviour closure, so the
   watch list and counters survive crashes of the supervisor itself. *)
type ctrl = {
  kernel : Kernel.t;
  pol : policy;
  on_give_up : string -> Uid.t -> unit;
  mutable watches : entry list; (* oldest first, for deterministic scan order *)
  mutable stopped : bool;
  mutable restarts : int;
  mutable give_ups : int;
}

type t = { s_uid : Uid.t; ctrl : ctrl }

let find ctrl uid = List.find_opt (fun e -> Uid.equal e.e_uid uid) ctrl.watches

let watch t ~label uid =
  let ctrl = t.ctrl in
  match find ctrl uid with
  | Some _ -> ()
  | None ->
      let e =
        {
          e_uid = uid;
          label;
          last_crashes = Kernel.crash_count ctrl.kernel uid;
          restart_times = [];
          consecutive = 0;
          gave_up = false;
        }
      in
      ctrl.watches <- ctrl.watches @ [ e ]

(* Supervisor decisions are span-annotated events on the kernel's
   collector, so restarts and give-ups appear interleaved with the
   invocation tree in exported traces. *)
let annotate ctrl ?(attrs = []) name e =
  Obs.instant (Kernel.obs ctrl.kernel) ~name ~cat:"resil"
    ~attrs:(("stage", e.label) :: ("uid", Uid.to_string e.e_uid) :: attrs)
    ~at:(Sched.now (Kernel.sched ctrl.kernel))
    ()

let give_up ctrl e =
  e.gave_up <- true;
  ctrl.give_ups <- ctrl.give_ups + 1;
  annotate ctrl "supervisor.give_up" e
    ~attrs:
      [
        ("restarts_in_window", string_of_int (List.length e.restart_times));
        ("budget", string_of_int ctrl.pol.max_restarts);
      ];
  ctrl.on_give_up e.label e.e_uid

let restart ctrl prng e ~now =
  e.restart_times <- now :: List.filter (fun t -> now -. t <= ctrl.pol.window) e.restart_times;
  if List.length e.restart_times > ctrl.pol.max_restarts then give_up ctrl e
  else begin
    e.consecutive <- e.consecutive + 1;
    let u = Prng.float prng 1.0 in
    Sched.sleep (Backoff.delay restart_backoff ~attempt:e.consecutive ~u ~prev:0.0);
    ctrl.restarts <- ctrl.restarts + 1;
    (* Reactivation from the latest checkpoint. *)
    Kernel.poke ctrl.kernel e.e_uid;
    e.last_crashes <- Kernel.crash_count ctrl.kernel e.e_uid;
    annotate ctrl "supervisor.restart" e
  end

let check ctrl prng e =
  if not e.gave_up then begin
    let c = Kernel.crash_count ctrl.kernel e.e_uid in
    if c > e.last_crashes then begin
      e.last_crashes <- c;
      restart ctrl prng e ~now:(Sched.now (Kernel.sched ctrl.kernel))
    end
    else if Kernel.is_active ctrl.kernel e.e_uid then e.consecutive <- 0
  end

let behaviour ctrl ctx ~passive:_ =
  let prng = Prng.create seed in
  Kernel.spawn_worker ctx ~name:"supervisor/monitor" (fun () ->
      let rec tick () =
        if not ctrl.stopped then begin
          Sched.sleep ctrl.pol.interval;
          if not ctrl.stopped then begin
            List.iter (check ctrl prng) ctrl.watches;
            tick ()
          end
        end
      in
      tick ());
  []

let create k ?(name = "supervisor") ?(policy = default_policy) ?(on_give_up = fun _ _ -> ())
    () =
  let ctrl =
    {
      kernel = k;
      pol = policy;
      on_give_up;
      watches = [];
      stopped = false;
      restarts = 0;
      give_ups = 0;
    }
  in
  let s_uid =
    Kernel.create_eject k ~dispatch:Kernel.Concurrent ~type_name:name (behaviour ctrl)
  in
  { s_uid; ctrl }

let unwatch t u =
  t.ctrl.watches <- List.filter (fun e -> not (Uid.equal e.e_uid u)) t.ctrl.watches

let start t = Kernel.poke t.ctrl.kernel t.s_uid
let stop t = t.ctrl.stopped <- true
let restarts t = t.ctrl.restarts
let give_ups t = t.ctrl.give_ups

let gave_up t =
  List.filter_map (fun e -> if e.gave_up then Some (e.label, e.e_uid) else None) t.ctrl.watches

