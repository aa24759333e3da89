module Kernel = Eden_kernel.Kernel
module Uid = Eden_kernel.Uid
module Value = Eden_kernel.Value
module T = Eden_transput

let op_lookup = "Lookup"
let op_add_entry = "AddEntry"
let op_delete_entry = "DeleteEntry"
let op_list = "List"

(* Entries in the passive representation: List [ List [Str; Uid]; ... ] *)
let encode_entries entries =
  Value.List (List.map (fun (name, uid) -> Value.pair (Value.Str name) (Value.Uid uid)) entries)

let decode_entries v =
  List.map
    (fun p ->
      let name, uid = Value.to_pair p in
      (Value.to_str name, Value.to_uid uid))
    (Value.to_list v)

let create k ?node () =
  Kernel.create_eject k ?node ~dispatch:Kernel.Concurrent ~type_name:"Directory"
    (fun ctx ~passive ->
      let entries = ref (match passive with Some v -> decode_entries v | None -> []) in
      let save () = Kernel.checkpoint ctx (encode_entries !entries) in
      let port = T.Port.create () in
      [
        ( op_lookup,
          fun arg ->
            let name = Value.to_str arg in
            match List.assoc_opt name !entries with
            | Some uid -> Value.Uid uid
            | None -> raise (Kernel.Eden_error ("not found: " ^ name)) );
        ( op_add_entry,
          fun arg ->
            let name, uid = Value.to_pair arg in
            let name = Value.to_str name and uid = Value.to_uid uid in
            if List.mem_assoc name !entries then
              raise (Kernel.Eden_error ("already bound: " ^ name));
            entries := (name, uid) :: !entries;
            save ();
            Value.Unit );
        ( op_delete_entry,
          fun arg ->
            let name = Value.to_str arg in
            if not (List.mem_assoc name !entries) then
              raise (Kernel.Eden_error ("not found: " ^ name));
            entries := List.remove_assoc name !entries;
            save ();
            Value.Unit );
        ( op_list,
          fun _ ->
            (* Prepare to receive Read invocations: mint a channel, fill
               it with the printable listing, hand back the capability. *)
            let chan = T.Channel.Cap (Kernel.mint ctx) in
            let w = T.Port.add_channel port ~capacity:(1 + List.length !entries) chan in
            let sorted = List.sort (fun (a, _) (b, _) -> String.compare a b) !entries in
            List.iter
              (fun (name, uid) ->
                T.Port.write w
                  (Value.Str (Printf.sprintf "%-24s %s" name (Uid.to_string uid))))
              sorted;
            T.Port.close w;
            T.Channel.to_value chan );
      ]
      @ T.Port.handlers port)

let concatenator k dirs =
  Kernel.create_eject k ~dispatch:Kernel.Concurrent ~type_name:"DirectoryConcatenator"
    (fun ctx ~passive ->
      (* The directory list itself is checkpointed so a recovered
         concatenator still knows its search path. *)
      let dirs =
        match passive with
        | Some v -> List.map Value.to_uid (Value.to_list v)
        | None ->
            Kernel.checkpoint ctx (Value.List (List.map (fun d -> Value.Uid d) dirs));
            dirs
      in
      [
        ( op_lookup,
          fun arg ->
            let rec try_dirs = function
              | [] -> raise (Kernel.Eden_error ("not found: " ^ Value.to_str arg))
              | d :: rest -> (
                  match Kernel.invoke ctx d ~op:op_lookup arg with
                  | Ok v -> v
                  | Error _ -> try_dirs rest)
            in
            try_dirs dirs );
      ])

(* --- Client side ---------------------------------------------------- *)

let lookup ctx ~dir name =
  match Kernel.invoke ctx dir ~op:op_lookup (Value.Str name) with
  | Ok v -> Some (Value.to_uid v)
  | Error _ -> None

let add_entry ctx ~dir name uid =
  Value.to_unit (Kernel.call ctx dir ~op:op_add_entry (Value.pair (Value.Str name) (Value.Uid uid)))

let delete_entry ctx ~dir name =
  Value.to_unit (Kernel.call ctx dir ~op:op_delete_entry (Value.Str name))

let list_lines ctx ~dir =
  let chan = T.Channel.of_value (Kernel.call ctx dir ~op:op_list Value.Unit) in
  let pull = T.Pull.connect ctx ~channel:chan ~batch:4 dir in
  let lines = ref [] in
  T.Pull.iter (fun v -> lines := Value.to_str v :: !lines) pull;
  List.rev !lines
