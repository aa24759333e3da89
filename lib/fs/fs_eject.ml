module Kernel = Eden_kernel.Kernel
module Uid = Eden_kernel.Uid
module Value = Eden_kernel.Value
module T = Eden_transput

let op_new_stream = "NewStream"
let op_use_stream = "UseStream"
let op_write_file = "WriteFile"
let op_remove = "Remove"
let op_make_dir = "MakeDir"
let op_list_dir = "ListDir"
let op_close = "Close"
let op_await = "Await"

let fs_error f =
  try f ()
  with Unix_fs.Error (e, path) ->
    raise (Kernel.Eden_error (Printf.sprintf "%s: %s" path (Unix_fs.error_message e)))

(* A UnixFile Eject streaming [lines] out of its Transfer port.  It
   never checkpoints, so Close makes it disappear for good (§7). *)
let reader_eject k ~node lines =
  Kernel.create_eject k ~node ~dispatch:Kernel.Concurrent ~type_name:"UnixFile"
    (fun ctx ~passive:_ ->
      let port = T.Port.create () in
      let w = T.Port.add_channel port ~capacity:8 T.Channel.output in
      Kernel.spawn_worker ctx ~name:"UnixFile/stream" (fun () ->
          List.iter (fun line -> T.Port.write w (Value.Str line)) lines;
          T.Port.close w);
      ( op_close,
        fun _ ->
          Kernel.destroy ctx;
          Value.Unit )
      :: T.Port.handlers port)

(* A UnixFile Eject recording a stream into [path] of [fs]. *)
let writer_eject k ~node fs path stream =
  Kernel.create_eject k ~node ~dispatch:Kernel.Concurrent ~type_name:"UnixFile"
    (fun ctx ~passive:_ ->
      let committed = Eden_sched.Ivar.create () in
      Kernel.spawn_worker ctx ~name:"UnixFile/record" (fun () ->
          let pull = T.Pull.connect ctx stream in
          let lines = ref [] in
          T.Pull.iter (fun v -> lines := Value.to_str v :: !lines) pull;
          fs_error (fun () ->
              Unix_fs.write_file fs path (Eden_util.Text.join_lines (List.rev !lines)));
          Eden_sched.Ivar.fill committed ());
      [
        ( op_await,
          fun _ ->
            Eden_sched.Ivar.read committed;
            Kernel.destroy ctx;
            Value.Unit );
      ])

let create k ?node fs =
  let node = match node with Some n -> n | None -> List.hd (Kernel.nodes k) in
  Kernel.create_eject k ~node ~dispatch:Kernel.Concurrent ~type_name:"UnixFileSystem"
    (fun _ctx ~passive:_ ->
      [
        ( op_new_stream,
          fun arg ->
            let path = Value.to_str arg in
            let content = fs_error (fun () -> Unix_fs.read_file fs path) in
            Value.Uid (reader_eject k ~node (Eden_util.Text.split_lines content)) );
        ( op_use_stream,
          fun arg ->
            let p, cap = Value.to_pair arg in
            let path = Value.to_str p and stream = Value.to_uid cap in
            Value.Uid (writer_eject k ~node fs path stream) );
        ( op_write_file,
          fun arg ->
            let p, content = Value.to_pair arg in
            fs_error (fun () -> Unix_fs.write_file fs (Value.to_str p) (Value.to_str content));
            Value.Unit );
        ( op_remove,
          fun arg ->
            fs_error (fun () -> Unix_fs.unlink fs (Value.to_str arg));
            Value.Unit );
        ( op_make_dir,
          fun arg ->
            fs_error (fun () -> Unix_fs.mkdir_p fs (Value.to_str arg));
            Value.Unit );
        ( op_list_dir,
          fun arg ->
            let names = fs_error (fun () -> Unix_fs.readdir fs (Value.to_str arg)) in
            Value.List (List.map (fun n -> Value.Str n) names) );
      ])

(* --- Client side ---------------------------------------------------- *)

let new_stream ctx ~fs path = Value.to_uid (Kernel.call ctx fs ~op:op_new_stream (Value.Str path))

let use_stream ctx ~fs path stream =
  Value.to_uid (Kernel.call ctx fs ~op:op_use_stream (Value.pair (Value.Str path) (Value.Uid stream)))

let await_writer ctx writer = Value.to_unit (Kernel.call ctx writer ~op:op_await Value.Unit)

let close_stream ctx stream = Value.to_unit (Kernel.call ctx stream ~op:op_close Value.Unit)

let read_lines ctx ~fs path =
  let stream = new_stream ctx ~fs path in
  let pull = T.Pull.connect ctx stream in
  let lines = ref [] in
  T.Pull.iter (fun v -> lines := Value.to_str v :: !lines) pull;
  close_stream ctx stream;
  List.rev !lines

let copy_through ctx ~fs ~src ~dst transforms =
  let k = Kernel.kernel ctx in
  let stream = new_stream ctx ~fs src in
  let last =
    List.fold_left
      (fun upstream tr -> T.Stage.filter_ro k ~upstream tr)
      stream transforms
  in
  let writer = use_stream ctx ~fs dst last in
  await_writer ctx writer
