module Kernel = Eden_kernel.Kernel
module Uid = Eden_kernel.Uid
module Value = Eden_kernel.Value

let op_set_source = "SetSource"

let create k ~initial () =
  Kernel.create_eject k ~dispatch:Kernel.Concurrent ~type_name:"redirector"
    (fun ctx ~passive:_ ->
      (* The current connection, replaced wholesale on SetSource so
         buffered items from the old source are not mixed into the new
         stream.  [switched] marks that a redirection happened while the
         current source was (or went) dead, so its EOS must not
         propagate. *)
      let current = ref (Pull.connect ctx initial) in
      let generation = ref 0 in
      let port = Port.create () in
      let w = Port.add_channel port ~capacity:0 Channel.output in
      Kernel.spawn_worker ctx ~name:"redirector/proxy" (fun () ->
          let rec pump my_generation =
            if !generation <> my_generation then
              (* A switch happened: abandon this source, follow the new
                 one. *)
              pump !generation
            else
              match Pull.read !current with
              | Some v ->
                  Port.write w v;
                  pump !generation
              | None ->
                  if !generation <> my_generation then pump !generation
                  else begin
                    (* True end of stream with no pending redirection:
                       wait briefly for a possible SetSource — in this
                       simulation, park until one arrives or close. *)
                    Port.close w
                  end
          in
          pump !generation);
      ( op_set_source,
        fun arg ->
          current := Pull.connect ctx (Value.to_uid arg);
          incr generation;
          Value.Unit )
      :: Port.handlers port)

let set_source ctx ~redirector src =
  Value.to_unit (Kernel.call ctx redirector ~op:op_set_source (Value.Uid src))
