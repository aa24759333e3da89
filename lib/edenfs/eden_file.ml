module Kernel = Eden_kernel.Kernel
module Uid = Eden_kernel.Uid
module Value = Eden_kernel.Value
module T = Eden_transput

let op_open_read = "OpenRead"
let op_open_write = "OpenWrite"
let op_read_at = "ReadAt"
let op_write_at = "WriteAt"
let op_size = "Size"
let op_truncate_to = "TruncateTo"

let encode_lines lines = Value.List (List.map (fun l -> Value.Str l) lines)
let decode_lines v = List.map Value.to_str (Value.to_list v)

let create k ?node ?(initial = []) () =
  Kernel.create_eject k ?node ~dispatch:Kernel.Concurrent ~type_name:"EdenFile"
    (fun ctx ~passive ->
      (* Contents live as a line list; every commit checkpoints, which
         is the only way this Eject touches stable storage (§1). *)
      let contents =
        ref (match passive with Some v -> decode_lines v | None -> initial)
      in
      let commit () = Kernel.checkpoint ctx (encode_lines !contents) in
      (* Make the creation-time contents durable too. *)
      if passive = None then commit ();
      let port = T.Port.create () in
      let intake = T.Intake.create () in
      let bounds_check i =
        if i < 0 || i >= List.length !contents then
          raise
            (Kernel.Eden_error
               (Printf.sprintf "line %d out of bounds (size %d)" i (List.length !contents)))
      in
      [
        ( op_open_read,
          fun _ ->
            (* Serve a snapshot behind a fresh capability channel:
               concurrent readers do not steal from each other, and a
               concurrent commit does not tear a reader's view. *)
            let snapshot = !contents in
            let chan = T.Channel.Cap (Kernel.mint ctx) in
            let w = T.Port.add_channel port ~capacity:(1 + List.length snapshot) chan in
            List.iter (fun l -> T.Port.write w (Value.Str l)) snapshot;
            T.Port.close w;
            T.Channel.to_value chan );
        ( op_open_write,
          fun arg ->
            let append = match arg with Value.Bool b -> b | _ -> false in
            let chan = T.Channel.Cap (Kernel.mint ctx) in
            let r = T.Intake.add_channel intake ~capacity:8 chan in
            (* The writer's lines accumulate privately; end of stream
               commits them atomically. *)
            Kernel.spawn_worker ctx ~name:"EdenFile/writer" (fun () ->
                let acc = ref [] in
                let rec drain () =
                  match T.Intake.read r with
                  | Some v ->
                      acc := Value.to_str v :: !acc;
                      drain ()
                  | None ->
                      let fresh = List.rev !acc in
                      contents := (if append then !contents @ fresh else fresh);
                      commit ()
                in
                drain ());
            T.Channel.to_value chan );
        ( op_read_at,
          fun arg ->
            let i = Value.to_int arg in
            bounds_check i;
            Value.Str (List.nth !contents i) );
        ( op_write_at,
          fun arg ->
            let idx, line = Value.to_pair arg in
            let i = Value.to_int idx and line = Value.to_str line in
            bounds_check i;
            contents := List.mapi (fun j l -> if j = i then line else l) !contents;
            commit ();
            Value.Unit );
        (op_size, fun _ -> Value.Int (List.length !contents));
        ( op_truncate_to,
          fun arg ->
            let n = Value.to_int arg in
            if n < 0 then raise (Kernel.Eden_error "negative size");
            contents := List.filteri (fun i _ -> i < n) !contents;
            commit ();
            Value.Unit );
      ]
      @ T.Port.handlers port
      @ T.Intake.handlers intake)

(* --- Client side ---------------------------------------------------- *)

let open_read ctx file = T.Channel.of_value (Kernel.call ctx file ~op:op_open_read Value.Unit)

let read_all ctx file =
  let chan = open_read ctx file in
  let pull = T.Pull.connect ctx ~batch:8 ~channel:chan file in
  let acc = ref [] in
  T.Pull.iter (fun v -> acc := Value.to_str v :: !acc) pull;
  List.rev !acc

let open_for_write ctx ~append file =
  T.Channel.of_value (Kernel.call ctx file ~op:op_open_write (Value.Bool append))

let open_write ctx file = open_for_write ctx ~append:false file

let write_all ctx ?(append = false) file lines =
  let chan = open_for_write ctx ~append file in
  let push = T.Push.connect ctx ~batch:8 ~channel:chan file in
  List.iter (fun l -> T.Push.write push (Value.Str l)) lines;
  T.Push.close push

let read_at ctx file i = Value.to_str (Kernel.call ctx file ~op:op_read_at (Value.Int i))

let write_at ctx file i line =
  Value.to_unit (Kernel.call ctx file ~op:op_write_at (Value.pair (Value.Int i) (Value.Str line)))

let size ctx file = Value.to_int (Kernel.call ctx file ~op:op_size Value.Unit)

let truncate_to ctx file n =
  Value.to_unit (Kernel.call ctx file ~op:op_truncate_to (Value.Int n))
