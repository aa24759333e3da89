(* Discrete-event cooperative scheduler built on OCaml 5 effect
   handlers.  The design constraint throughout is determinism: FIFO run
   queue, a stable (insertion-ordered) timer heap, and virtual time that
   advances only at quiescence of the run queue.

   Both hot structures are flat stores (see Eden_util.Cqueue and
   Eden_util.Theap): the run queue is one circular array, and the timer
   heap is an index-backed binary heap whose entries are physically
   removed on cancellation instead of lingering as tombstones until
   their deadline. *)

module Cqueue = Eden_util.Cqueue
module Theap = Eden_util.Theap

exception Cancelled

type fiber_id = int

type timer_handle = int

(* One park of one fiber: the record a waker holds.  [fired] makes
   wake and cancel mutually exclusive and idempotent: whichever of
   {waker, canceller, timer} gets there first wins.  [wtimer] is the
   heap handle of the pending timer backing this park (sleeps); firing
   or cancelling removes it from the heap so a cancelled sleep costs
   nothing afterwards.  The continuation lives here, in a record as
   young as the park, and never in the long-lived [fiber]: storing a
   young value into an old record costs a write barrier on every
   park. *)
type wake = {
  wsched : t;
  wfiber : fiber;
  wk : (unit, unit) Effect.Deep.continuation;
  mutable fired : bool;
  mutable wtimer : timer_handle;
}

(* A parked fiber's state holds its park, so parking and waking each
   store into the fiber once.  A sleeper keeps its duration, not its
   reason: the ["sleep %.3f"] string is formatted only when [blocked]
   reads it. *)
and state =
  | Ready
  | Running
  | Blocked of string * wake
  | Sleeping of float * wake
  | Finished

and fiber = {
  fid : fiber_id;
  fname : string;
  mutable fstate : state;
  mutable fcancelled : bool;
}

(* A run-queue slice: a fiber's first run, or the continuation of a
   woken (or yielding) one.  Either way it knows which fiber it will
   run, so a scheduling policy can choose between runnable fibers by
   id. *)
and slice = Start of fiber * (unit -> unit) | Resume of wake

and t = {
  runq : slice Cqueue.t;
  timers : (unit -> unit) Theap.t;
  mutable clock : float;
  fibers : (fiber_id, fiber) Hashtbl.t;
  mutable next_id : int;
  mutable failures : (string * exn) list;
  mutable current : fiber; (* [no_fiber] between fibers *)
  mutable live : int;
  mutable finish_hook : fiber_id -> unit;
  (* Schedule-exploration hooks.  [chooser = None] is the bit-identical
     FIFO default; [note_hook = None] makes [note] free. *)
  mutable chooser : (kind:string -> ids:int array -> int) option;
  mutable note_hook : (kind:string -> arg:int -> unit) option;
  (* The effect handler every fiber runs under, built once (see
     [handler]). *)
  mutable fhandler : (unit, unit) Effect.Deep.handler;
}

type waker = wake

type _ Effect.t +=
  | Yield : unit Effect.t
  | Sleep : float -> unit Effect.t
  | Park : (string * ('a -> wake -> unit) * 'a) -> unit Effect.t
  | Time : float Effect.t
  | Self : fiber Effect.t
  | Spawn_inside : (string option * (unit -> unit)) -> fiber_id Effect.t

(* Stands for "no fiber is running", so a slice sets [current] without
   allocating an option. *)
let no_fiber = { fid = -1; fname = ""; fstate = Finished; fcancelled = false }

let empty () =
  {
    runq = Cqueue.create ();
    timers = Theap.create ~dummy:(fun () -> ()) ();
    clock = 0.0;
    fibers = Hashtbl.create 64;
    next_id = 0;
    failures = [];
    current = no_fiber;
    live = 0;
    finish_hook = ignore;
    chooser = None;
    note_hook = None;
    fhandler = { retc = ignore; exnc = raise; effc = (fun _ -> None) };
  }

let set_finish_hook t hook = t.finish_hook <- hook
let set_chooser t c = t.chooser <- c
let set_note_hook t h = t.note_hook <- h

let note t ~kind ~arg = match t.note_hook with None -> () | Some f -> f ~kind ~arg

let now t = t.clock

let timer_cancellable t delay thunk =
  let delay = if delay < 0.0 then 0.0 else delay in
  Theap.insert t.timers (t.clock +. delay) thunk

let timer t delay thunk = ignore (timer_cancellable t delay thunk)
let cancel_timer t h = ignore (Theap.remove t.timers h)
let timer_count t = Theap.size t.timers

(* Finished fibers are removed from the table immediately: keeping
   them made [t.fibers] (and every [blocked]/[cancel] scan over it)
   grow without bound over long runs. *)
let finish t fiber outcome =
  fiber.fstate <- Finished;
  t.live <- t.live - 1;
  Hashtbl.remove t.fibers fiber.fid;
  t.finish_hook fiber.fid;
  match outcome with
  | None -> ()
  | Some exn -> t.failures <- (fiber.fname, exn) :: t.failures

(* End the park and queue the fiber to run; [false] if the park had
   already ended.  A cancelled fiber's slice raises [Cancelled] into it
   instead of continuing it, so cancelling is waking after setting
   [fcancelled].  A timer handle already popped by the firing timer
   itself is stale by then, and removing it is a no-op. *)
let wake w =
  if w.fired then false
  else begin
    w.fired <- true;
    let t = w.wsched in
    if w.wtimer >= 0 then begin
      ignore (Theap.remove t.timers w.wtimer);
      w.wtimer <- -1
    end;
    w.wfiber.fstate <- Ready;
    Cqueue.push t.runq (Resume w);
    true
  end

let new_wake t fiber k = { wsched = t; wfiber = fiber; wk = k; fired = false; wtimer = -1 }

let wake_thunk w () = ignore (wake w)

let slice_fid = function Start (f, _) -> f.fid | Resume w -> w.wfiber.fid

let run_slice t = function
  | Start (_, thunk) -> thunk ()
  | Resume w ->
      let fiber = w.wfiber in
      t.current <- fiber;
      fiber.fstate <- Running;
      if fiber.fcancelled then Effect.Deep.discontinue w.wk Cancelled
      else Effect.Deep.continue w.wk ()

let spawn t ?name body =
  let fid = t.next_id in
  t.next_id <- fid + 1;
  let fname = match name with Some n -> n | None -> Printf.sprintf "fiber-%d" fid in
  let fiber = { fid; fname; fstate = Ready; fcancelled = false } in
  Hashtbl.replace t.fibers fid fiber;
  t.live <- t.live + 1;
  let thunk () =
    t.current <- fiber;
    if fiber.fcancelled then finish t fiber None
    else begin
      fiber.fstate <- Running;
      Effect.Deep.match_with body () t.fhandler
    end
  in
  Cqueue.push t.runq (Start (fiber, thunk));
  fid

(* The effect handler of every fiber of [t].  Effects are performed
   only by the running fiber, so the handler reads the fiber from
   [t.current] and one handler serves them all: a spawn builds no
   closures for it. *)
let handler t : (unit, unit) Effect.Deep.handler =
  {
    retc = (fun () -> finish t t.current None);
    exnc =
      (fun exn ->
        match exn with
        | Cancelled -> finish t t.current None
        | exn -> finish t t.current (Some exn));
    effc =
      (fun (type a) (eff : a Effect.t) ->
        match eff with
        | Yield ->
            Some
              (fun (k : (a, unit) Effect.Deep.continuation) ->
                let fiber = t.current in
                if fiber.fcancelled then Effect.Deep.discontinue k Cancelled
                else begin
                  fiber.fstate <- Ready;
                  Cqueue.push t.runq
                    (Resume { wsched = t; wfiber = fiber; wk = k; fired = true; wtimer = -1 })
                end)
        | Sleep d ->
            Some
              (fun (k : (a, unit) Effect.Deep.continuation) ->
                let fiber = t.current in
                if fiber.fcancelled then Effect.Deep.discontinue k Cancelled
                else begin
                  let w = new_wake t fiber k in
                  fiber.fstate <- Sleeping (d, w);
                  w.wtimer <- timer_cancellable t d (wake_thunk w)
                end)
        | Park (reason, register, arg) ->
            Some
              (fun (k : (a, unit) Effect.Deep.continuation) ->
                let fiber = t.current in
                if fiber.fcancelled then Effect.Deep.discontinue k Cancelled
                else begin
                  let w = new_wake t fiber k in
                  fiber.fstate <- Blocked (reason, w);
                  register arg w
                end)
        | Time -> Some (fun (k : (a, unit) Effect.Deep.continuation) -> Effect.Deep.continue k t.clock)
        | Self ->
            Some (fun (k : (a, unit) Effect.Deep.continuation) -> Effect.Deep.continue k t.current)
        | Spawn_inside (name, body) ->
            Some
              (fun (k : (a, unit) Effect.Deep.continuation) ->
                let fid : fiber_id =
                  match name with Some n -> spawn t ~name:n body | None -> spawn t body
                in
                Effect.Deep.continue k fid)
        | _ -> None);
  }

let create () =
  let t = empty () in
  t.fhandler <- handler t;
  t

let cancel t fid =
  match Hashtbl.find_opt t.fibers fid with
  | None -> ()
  | Some fiber -> (
      match fiber.fstate with
      | Finished -> ()
      | Running | Ready -> fiber.fcancelled <- true
      | Blocked (_, w) | Sleeping (_, w) ->
          fiber.fcancelled <- true;
          ignore (wake w))

(* Ask the chooser (when installed, and only when there is an actual
   choice) which index to take; out-of-range answers are a policy bug. *)
let consult t ~kind ~ids =
  match t.chooser with
  | None -> 0
  | Some choose ->
      let n = Array.length ids in
      if n <= 1 then 0
      else begin
        let i = choose ~kind ~ids in
        if i < 0 || i >= n then
          invalid_arg
            (Printf.sprintf "Sched: chooser returned %d for %d-way %s pick" i n kind);
        i
      end

(* Dequeue the next runnable slice.  FIFO (head of queue) unless a
   chooser picks otherwise; the relative order of unchosen slices is
   preserved either way. *)
let pop_slice t =
  match t.chooser with
  | None -> Cqueue.pop_exn t.runq
  | Some _ ->
      let n = Cqueue.length t.runq in
      if n = 1 then Cqueue.pop_exn t.runq
      else begin
        let ids = Array.make n 0 in
        let j = ref 0 in
        Cqueue.iter
          (fun s ->
            ids.(!j) <- slice_fid s;
            incr j)
          t.runq;
        let i = consult t ~kind:"sched.run" ~ids in
        (* O(i) in-place extraction; unchosen slices keep their order. *)
        Cqueue.take_nth t.runq i
      end

(* Fire one pending timer.  Strictly earliest-deadline-first; a chooser
   may only break ties between timers due at the same instant. *)
let fire_timer t =
  if Theap.is_empty t.timers then false
  else begin
    (* Every timer tied at the minimum is due at [time]. *)
    let time = Theap.min_key t.timers in
    let thunk =
      match t.chooser with
      | None -> Theap.pop_min t.timers
      | Some _ -> (
          let m = Theap.min_tie_count t.timers in
          if m <= 1 then Theap.pop_min t.timers
          else
            let i = consult t ~kind:"sched.timer" ~ids:(Array.init m (fun i -> i)) in
            match Theap.delete_nth_min t.timers i with
            | Some (_, thunk) -> thunk
            | None -> assert false)
    in
    if time > t.clock then t.clock <- time;
    thunk ();
    t.current <- no_fiber;
    true
  end

let step t =
  if not (Cqueue.is_empty t.runq) then begin
    run_slice t (pop_slice t);
    t.current <- no_fiber;
    true
  end
  else fire_timer t

let run t =
  let rec go () = if step t then go () else () in
  go ()

let run_until t limit =
  let rec go () =
    if not (Cqueue.is_empty t.runq) then begin
      run_slice t (pop_slice t);
      t.current <- no_fiber;
      go ()
    end
    else if (not (Theap.is_empty t.timers)) && Theap.min_key t.timers <= limit then begin
      ignore (fire_timer t);
      go ()
    end
    else if t.clock < limit then t.clock <- limit
  in
  go ()

let live_count t = t.live
let runnable t = Cqueue.length t.runq
let tracked_count t = Hashtbl.length t.fibers
let is_live t fid = Hashtbl.mem t.fibers fid
let current_fid t = if t.current == no_fiber then None else Some t.current.fid

let blocked_info t =
  Hashtbl.fold
    (fun _ f acc ->
      match f.fstate with
      | Blocked (reason, _) -> (f.fid, f.fname, reason) :: acc
      | Sleeping (d, _) -> (f.fid, f.fname, Printf.sprintf "sleep %.3f" d) :: acc
      | Ready | Running | Finished -> acc)
    t.fibers []
  |> List.sort compare

let blocked t =
  List.map (fun (_, name, reason) -> (name, reason)) (blocked_info t) |> List.sort compare

let failures t = t.failures

let check_failures t =
  match List.rev t.failures with
  | [] -> ()
  | (name, exn) :: _ ->
      failwith (Printf.sprintf "fiber %s died: %s" name (Printexc.to_string exn))

(* Fiber-side operations. *)

let yield () = Effect.perform Yield
let sleep d = Effect.perform (Sleep d)
let park ~reason register arg = Effect.perform (Park (reason, register, arg))
let resume_of register w = register (wake_thunk w)
let suspend ~reason register = park ~reason resume_of register
let time () = Effect.perform Time
let self_name () = (Effect.perform Self).fname
let spawn_inside ?name body = Effect.perform (Spawn_inside (name, body))
