module Value = Eden_kernel.Value
module Kernel = Eden_kernel.Kernel
module Uid = Eden_kernel.Uid

let tee k ?(capacity = 0) ~upstream ~channels () =
  if channels = [] then invalid_arg "Flow.tee: no output channels";
  Kernel.create_eject k ~dispatch:Kernel.Concurrent ~type_name:"tee" (fun ctx ~passive:_ ->
      let port = Port.create () in
      let writers = List.map (fun c -> Port.add_channel port ~capacity c) channels in
      let pull = Pull.connect ctx upstream in
      Kernel.spawn_worker ctx ~name:"tee/copy" (fun () ->
          let rec go () =
            match Pull.read pull with
            | Some v ->
                List.iter (fun w -> Port.write w v) writers;
                go ()
            | None -> List.iter Port.close writers
          in
          go ());
      Port.handlers port)

type merge_policy = Arrival | Round_robin

let merge k ?(capacity = 0) ?(policy = Arrival) ~upstreams () =
  if upstreams = [] then invalid_arg "Flow.merge: no upstreams";
  Kernel.create_eject k ~dispatch:Kernel.Concurrent ~type_name:"merge" (fun ctx ~passive:_ ->
      let port = Port.create () in
      let w = Port.add_channel port ~capacity Channel.output in
      (match policy with
      | Round_robin ->
          (* One worker cycles through live sources, pulling one item
             from each in turn. *)
          Kernel.spawn_worker ctx ~name:"merge/rr" (fun () ->
              let pulls = List.map (fun (u, c) -> Pull.connect ctx ~channel:c u) upstreams in
              let rec cycle live =
                if live <> [] then begin
                  let still =
                    List.filter
                      (fun pull ->
                        match Pull.read pull with
                        | Some v ->
                            Port.write w v;
                            true
                        | None -> false)
                      live
                  in
                  cycle still
                end
              in
              cycle pulls;
              Port.close w)
      | Arrival ->
          (* One worker per source, racing into the shared channel; a
             waitgroup worker closes after the last ends. *)
          let wg = Eden_sched.Waitgroup.create () in
          Eden_sched.Waitgroup.add wg (List.length upstreams);
          List.iteri
            (fun i (u, c) ->
              Kernel.spawn_worker ctx ~name:(Printf.sprintf "merge/in%d" i) (fun () ->
                  let pull = Pull.connect ctx ~channel:c u in
                  Pull.iter (Port.write w) pull;
                  Eden_sched.Waitgroup.finish wg))
            upstreams;
          Kernel.spawn_worker ctx ~name:"merge/join" (fun () ->
              Eden_sched.Waitgroup.wait wg;
              Port.close w));
      Port.handlers port)

let split k ?(capacity = 0) ~upstream ~pred ~accept ~reject () =
  if Channel.equal accept reject then invalid_arg "Flow.split: channels must differ";
  Kernel.create_eject k ~dispatch:Kernel.Concurrent ~type_name:"split" (fun ctx ~passive:_ ->
      let port = Port.create () in
      let wa = Port.add_channel port ~capacity accept in
      let wr = Port.add_channel port ~capacity reject in
      let pull = Pull.connect ctx upstream in
      Kernel.spawn_worker ctx ~name:"split/route" (fun () ->
          let rec go () =
            match Pull.read pull with
            | Some v ->
                Port.write (if pred v then wa else wr) v;
                go ()
            | None ->
                Port.close wa;
                Port.close wr
          in
          go ());
      Port.handlers port)

let zip k ~left ~right () =
  Kernel.create_eject k ~dispatch:Kernel.Concurrent ~type_name:"zip" (fun ctx ~passive:_ ->
      let port = Port.create () in
      let w = Port.add_channel port ~capacity:0 Channel.output in
      let lu, lc = left and ru, rc = right in
      let pl = Pull.connect ctx ~channel:lc lu in
      let pr = Pull.connect ctx ~channel:rc ru in
      Kernel.spawn_worker ctx ~name:"zip/pair" (fun () ->
          let rec go () =
            match Pull.read pl with
            | None -> Port.close w
            | Some l -> (
                match Pull.read pr with
                | None -> Port.close w
                | Some r ->
                    Port.write w (Value.pair l r);
                    go ())
          in
          go ());
      Port.handlers port)
