module Value = Eden_kernel.Value
module Kernel = Eden_kernel.Kernel
module Uid = Eden_kernel.Uid
module T = Eden_transput

type reporting = T.Transform.next -> T.Transform.emit -> T.Transform.emit -> unit

let with_progress ?(every = 2) ~label tr next emit report =
  let seen = ref 0 in
  let counted_next () =
    let item = next () in
    (match item with
    | Some _ ->
        incr seen;
        if !seen mod every = 0 then
          report (Value.Str (Printf.sprintf "%s: %d items" label !seen))
    | None -> ());
    item
  in
  tr counted_next emit;
  report (Value.Str (Printf.sprintf "%s: done, %d items" label !seen))

(* A report stream needs a reader: one fiber writes both streams, so
   once this many reports sit unread the main stream stops too.  The
   buffer only lets it run ahead of a slower report reader. *)
let report_capacity = 1024

let filter_ro k ?node ?(name = "reporting-filter") ?(capacity = 0) ?(batch = 1) ~upstream
    ?(upstream_channel = T.Channel.output) reporting =
  T.Stage.custom k ?node ~name (fun ctx ~passive:_ ->
      let port = T.Port.create () in
      let out = T.Port.add_channel port ~capacity T.Channel.output in
      let rep = T.Port.add_channel port ~capacity:report_capacity T.Channel.report in
      let pull = T.Pull.connect ctx ~batch ~channel:upstream_channel upstream in
      Kernel.spawn_worker ctx ~name:(name ^ "/transform") (fun () ->
          if capacity = 0 then T.Port.await_demand out;
          reporting (fun () -> T.Pull.read pull) (T.Port.write out) (T.Port.write rep);
          T.Port.close out;
          T.Port.close rep);
      T.Port.handlers port)

let filter_wo k ?node ?(name = "reporting-filter") ?(capacity = 1) ?(batch = 1) ~downstream
    ?(downstream_channel = T.Channel.output) ~report_to ?(report_channel = T.Channel.report)
    reporting =
  T.Stage.custom k ?node ~name (fun ctx ~passive:_ ->
      let intake = T.Intake.create () in
      let r = T.Intake.add_channel intake ~capacity T.Channel.output in
      let push = T.Push.connect ctx ~batch ~channel:downstream_channel downstream in
      let rpush = T.Push.connect ctx ~batch ~channel:report_channel report_to in
      Kernel.spawn_worker ctx ~name:(name ^ "/transform") (fun () ->
          reporting (fun () -> T.Intake.read r) (T.Push.write push) (T.Push.write rpush);
          T.Push.close push;
          T.Push.close rpush);
      T.Intake.handlers intake)

let gen_with_reports ~label gen report =
  let count = ref 0 in
  fun () ->
    match gen () with
    | Some v ->
        incr count;
        report (Value.Str (Printf.sprintf "%s: produced %d" label !count));
        Some v
    | None -> None

let source_wo k ?(name = "reporting-source") ~downstream ~report_to ~label gen =
  T.Stage.custom k ~name (fun ctx ~passive:_ ->
      let push = T.Push.connect ctx downstream in
      let rpush = T.Push.connect ctx ~channel:T.Channel.report report_to in
      Kernel.spawn_worker ctx ~name:(name ^ "/pump") (fun () ->
          let gen = gen_with_reports ~label gen (T.Push.write rpush) in
          let rec go () =
            match gen () with
            | Some v ->
                T.Push.write push v;
                go ()
            | None ->
                T.Push.close push;
                T.Push.close rpush
          in
          go ());
      [])

let source_ro k ?node ?(name = "reporting-source") ?(capacity = 0) ~label gen =
  T.Stage.custom k ?node ~name (fun ctx ~passive:_ ->
      let port = T.Port.create () in
      let out = T.Port.add_channel port ~capacity T.Channel.output in
      let rep = T.Port.add_channel port ~capacity:report_capacity T.Channel.report in
      Kernel.spawn_worker ctx ~name:(name ^ "/produce") (fun () ->
          let gen = gen_with_reports ~label gen (T.Port.write rep) in
          let rec go () =
            T.Port.await_writable out;
            match gen () with
            | Some v ->
                T.Port.write out v;
                go ()
            | None ->
                T.Port.close out;
                T.Port.close rep
          in
          go ());
      T.Port.handlers port)
