module Kernel = Eden_kernel.Kernel
module Uid = Eden_kernel.Uid
module Value = Eden_kernel.Value
module Ivar = Eden_sched.Ivar
module Sched = Eden_sched.Sched
module T = Eden_transput

type display = { uid : Uid.t; lines : unit -> string list; done_ : unit Ivar.t }

(* Rendered output lives outside the behaviour so it survives
   deactivation and crash — it models ink on paper / phosphor. *)
let fresh_screen () =
  let buf = ref [] in
  let render line = buf := line :: !buf in
  let lines () = List.rev !buf in
  (render, lines)

let terminal_ro k ?node ?(name = "terminal") ?(rate = 0.0) ?(batch = 1) ~upstream
    ?(channel = T.Channel.output) () =
  let render, lines = fresh_screen () in
  let done_ = Ivar.create () in
  let uid =
    T.Stage.sink_ro k ?node ~name ~batch ~upstream ~upstream_channel:channel
      ~on_done:(fun () -> Ivar.fill done_ ())
      (fun v ->
        if rate > 0.0 then Sched.sleep rate;
        render (Value.to_str v))
  in
  { uid; lines; done_ }

let terminal_wo k ?node ?(name = "terminal") ?(rate = 0.0) ?(capacity = 1) () =
  let render, lines = fresh_screen () in
  let done_ = Ivar.create () in
  let uid =
    T.Stage.custom k ?node ~name (fun ctx ~passive:_ ->
        let intake = T.Intake.create () in
        let r = T.Intake.add_channel intake ~capacity T.Channel.output in
        Kernel.spawn_worker ctx ~name:(name ^ "/render") (fun () ->
            let rec go () =
              match T.Intake.read r with
              | Some v ->
                  if rate > 0.0 then Sched.sleep rate;
                  render (Value.to_str v);
                  go ()
              | None -> Ivar.fill done_ ()
            in
            go ());
        T.Intake.handlers intake)
  in
  { uid; lines; done_ }

let null_sink_ro k ?node ?(name = "null-sink") ?(batch = 1) ~upstream
    ?(channel = T.Channel.output) () =
  let done_ = Ivar.create () in
  let uid =
    T.Stage.sink_ro k ?node ~name ~batch ~upstream ~upstream_channel:channel
      ~on_done:(fun () -> Ivar.fill done_ ())
      ignore
  in
  { uid; lines = (fun () -> []); done_ }

let date_source k ?node ?(name = "date-source") () =
  T.Stage.source_ro k ?node ~name (fun () ->
      Some (Value.Str (Printf.sprintf "virtual time %.3f" (Sched.time ()))))

let counter_source k ?node ?(name = "counter-source") ?(prefix = "line ") ~limit () =
  let n = ref 0 in
  T.Stage.source_ro k ?node ~name (fun () ->
      if !n >= limit then None
      else begin
        incr n;
        Some (Value.Str (Printf.sprintf "%s%d" prefix !n))
      end)

let text_source k ?node ?(name = "text-source") ?(capacity = 0) lines =
  let rest = ref lines in
  T.Stage.source_ro k ?node ~name ~capacity (fun () ->
      match !rest with
      | [] -> None
      | l :: tl ->
          rest := tl;
          Some (Value.Str l))

let random_source k ?node ?(name = "random-source") ?(seed = 0xC0FFEEL) ?(words_per_line = 4)
    ~limit () =
  let prng = Eden_util.Prng.create seed in
  let vocabulary =
    [| "alpha"; "bravo"; "charlie"; "delta"; "echo"; "foxtrot"; "golf"; "hotel" |]
  in
  let n = ref 0 in
  T.Stage.source_ro k ?node ~name (fun () ->
      if !n >= limit then None
      else begin
        incr n;
        let words = List.init words_per_line (fun _ -> Eden_util.Prng.choose prng vocabulary) in
        Some (Value.Str (String.concat " " words))
      end)

(* --- Printer -------------------------------------------------------- *)

type printer = { puid : Uid.t; paper : unit -> string list; jobs_completed : unit -> int }

let op_print = "Print"

let printer k ?node ?(name = "printer") ?(rate = 0.0) () =
  let render, lines = fresh_screen () in
  let jobs = ref 0 in
  let uid =
    T.Stage.custom k ?node ~name (fun ctx ~passive:_ ->
        (* One sheet of paper: concurrent Print invocations queue on the
           spool semaphore rather than interleave their lines. *)
        let spool = Eden_sched.Semaphore.create 1 in
        [
          ( op_print,
            fun arg ->
              let source, channel =
                match arg with
                | Value.Uid u -> (u, T.Channel.output)
                | v ->
                    let u, c = Value.to_pair v in
                    (Value.to_uid u, T.Channel.of_value c)
              in
              Eden_sched.Semaphore.acquire spool;
              let finish () = Eden_sched.Semaphore.release spool in
              (try
                 let pull = T.Pull.connect ctx ~channel source in
                 T.Pull.iter
                   (fun v ->
                     if rate > 0.0 then Sched.sleep rate;
                     render (Value.to_str v))
                   pull
               with e ->
                 finish ();
                 raise e);
              incr jobs;
              finish ();
              Value.Unit );
        ])
  in
  { puid = uid; paper = lines; jobs_completed = (fun () -> !jobs) }

let print ctx ~printer ?channel source =
  let arg =
    match channel with
    | None -> Value.Uid source
    | Some c -> Value.pair (Value.Uid source) (T.Channel.to_value c)
  in
  Value.to_unit (Kernel.call ctx printer ~op:op_print arg)

(* --- Report windows -------------------------------------------------- *)

let report_window_wo k ?node ?(name = "report-window") ~writers () =
  let render, lines = fresh_screen () in
  let done_ = Ivar.create () in
  let uid =
    T.Stage.custom k ?node ~name (fun _ctx ~passive:_ ->
        (* Hand-rolled Deposit handler rather than an Intake: a window
           shared by several reporters must survive [writers] separate
           end-of-stream marks, where an Intake channel closes on the
           first. *)
        let remaining = ref writers in
        [
          ( T.Proto.deposit_op,
            fun arg ->
              let chan, eos, items = T.Proto.parse_deposit_request arg in
              if not (T.Channel.equal chan T.Channel.report) then
                raise (Kernel.Eden_error ("no such channel: " ^ T.Channel.to_string chan));
              if !remaining <= 0 then raise (Kernel.Eden_error "window already closed");
              List.iter (fun v -> render (Value.to_str v)) items;
              if eos then begin
                decr remaining;
                if !remaining = 0 then Ivar.fill done_ ()
              end;
              Value.Unit );
        ])
  in
  { uid; lines; done_ }

let report_window_ro k ?node ?(name = "report-window") ?(batch = 1) ~watch () =
  let render, lines = fresh_screen () in
  let done_ = Ivar.create () in
  let uid =
    T.Stage.custom k ?node ~name (fun ctx ~passive:_ ->
        let wg = Eden_sched.Waitgroup.create () in
        Eden_sched.Waitgroup.add wg (List.length watch);
        List.iter
          (fun (label, source, channel) ->
            Kernel.spawn_worker ctx ~name:(name ^ "/watch:" ^ label) (fun () ->
                let pull = T.Pull.connect ctx ~batch ~channel source in
                T.Pull.iter (fun v -> render (label ^ " | " ^ Value.to_str v)) pull;
                Eden_sched.Waitgroup.finish wg))
          watch;
        Kernel.spawn_worker ctx ~name:(name ^ "/join") (fun () ->
            Eden_sched.Waitgroup.wait wg;
            Ivar.fill done_ ());
        [])
  in
  { uid; lines; done_ }
