(* Cross-cutting property tests over the full stack.  These are the
   slow-ish randomised checks; module-specific properties live with
   their modules' suites. *)

open Eden_kernel
open Eden_transput
module Topo = Eden_par.Topo
module Dev = Eden_devices.Devices

let prop name ?(count = 40) gen f =
  Seed.to_alcotest (QCheck2.Test.make ~name ~count gen f)

let line_gen = QCheck2.Gen.(string_size ~gen:(char_range 'a' 'z') (int_range 0 8))

let list_gen items =
  let rest = ref items in
  fun () ->
    match !rest with
    | [] -> None
    | x :: tl ->
        rest := tl;
        Some (Value.Str x)

(* Identity pipelines are the identity under EVERY discipline and under
   random capacity/batch settings. *)
let prop_identity_all_disciplines =
  prop "identity pipeline == identity (all disciplines, any capacity/batch)"
    QCheck2.Gen.(
      tup4 (int_bound 2) (pair (int_bound 8) (int_range 1 5)) (small_list line_gen)
        (int_bound 2))
    (fun (disc_i, (capacity, batch), lines, n_filters) ->
      let discipline = List.nth Pipeline.all_disciplines disc_i in
      let k = Kernel.create () in
      let acc = ref [] in
      let p =
        Topo.pipeline k ~capacity ~batch discipline ~gen:(list_gen lines)
          ~filters:(List.init n_filters (fun _ -> Transform.identity))
          ~consume:(fun v -> acc := Value.to_str v :: !acc)
      in
      Kernel.run_driver k (fun _ -> Pipeline.run p);
      List.rev !acc = lines)

(* Eden files roundtrip arbitrary line lists through stream write +
   stream read, surviving a crash in between. *)
let prop_eden_file_roundtrip =
  prop "eden file write/crash/read roundtrips" QCheck2.Gen.(small_list line_gen) (fun lines ->
      let k = Kernel.create () in
      let f = Eden_edenfs.Eden_file.create k () in
      let got = ref [] in
      Kernel.run_driver k (fun ctx ->
          Eden_edenfs.Eden_file.write_all ctx f lines;
          Kernel.crash k f;
          got := Eden_edenfs.Eden_file.read_all ctx f);
      !got = lines)

(* Namespace bind/resolve roundtrips for random (distinct-leaf) paths. *)
let prop_namespace_roundtrip =
  let seg = QCheck2.Gen.(string_size ~gen:(char_range 'a' 'f') (int_range 1 4)) in
  prop "namespace bind/resolve roundtrip" QCheck2.Gen.(list_size (int_range 1 4) seg)
    (fun segs ->
      let k = Kernel.create () in
      let root = Eden_dirsvc.Directory.create k () in
      let target = Kernel.create_eject k ~type_name:"leaf" (fun _ctx ~passive:_ -> []) in
      let path = "/" ^ String.concat "/" segs in
      let ok = ref false in
      Kernel.run_driver k (fun ctx ->
          Eden_dirsvc.Namespace.bind ctx ~root path target;
          match Eden_dirsvc.Namespace.resolve ctx ~root path with
          | Some uid -> ok := Uid.equal uid target
          | None -> ());
      !ok)

(* Merge (Arrival) preserves per-source order for random inputs. *)
let prop_merge_preserves_source_order =
  prop "merge preserves per-source order"
    QCheck2.Gen.(pair (small_list line_gen) (small_list line_gen))
    (fun (xs, ys) ->
      let k = Kernel.create () in
      let tag p = List.mapi (fun i l -> Printf.sprintf "%s%d-%s" p i l) in
      let xs = tag "x" xs and ys = tag "y" ys in
      let s1 = Dev.text_source k xs and s2 = Dev.text_source k ys in
      let m =
        Flow.merge k ~capacity:4 ~upstreams:[ (s1, Channel.output); (s2, Channel.output) ] ()
      in
      let out = ref [] in
      Kernel.run_driver k (fun ctx ->
          let pull = Pull.connect ctx m in
          Pull.iter (fun v -> out := Value.to_str v :: !out) pull);
      let got = List.rev !out in
      let of_prefix p = List.filter (Eden_util.Text.is_prefix ~prefix:p) got in
      of_prefix "x" = xs && of_prefix "y" = ys && List.length got = List.length xs + List.length ys)

(* The cost model's entity prediction is exact for every discipline and
   every length. *)
let prop_entity_prediction_exact =
  prop "entity prediction exact" QCheck2.Gen.(pair (int_bound 2) (int_bound 6))
    (fun (disc_i, n_filters) ->
      let discipline = List.nth Pipeline.all_disciplines disc_i in
      let k = Kernel.create () in
      let p =
        Topo.pipeline k discipline
          ~gen:(list_gen [ "x" ])
          ~filters:(List.init n_filters (fun _ -> Transform.identity))
          ~consume:ignore
      in
      Kernel.run_driver k (fun _ -> Pipeline.run p);
      Pipeline.entity_count p = (Pipeline.predict discipline ~n_filters).Pipeline.entities)

(* Sed: "1,Nd" drops exactly the first N; a quit at N behaves like
   head N. *)
let prop_sed_addressing =
  prop "sed 1,Nd == drop N; Nq == head N"
    QCheck2.Gen.(pair (int_range 1 6) (small_list line_gen))
    (fun (n, lines) ->
      let sed cmds =
        match Eden_filters.Sed.parse_script cmds with
        | Ok s -> Eden_filters.Sed.run_lines s lines
        | Error e -> failwith e
      in
      let drop_n =
        List.filteri (fun i _ -> i >= n) lines
      in
      let head_n = List.filteri (fun i _ -> i < n) lines in
      sed [ Printf.sprintf "1,%dd" n ] = drop_n && sed [ Printf.sprintf "%dq" n ] = head_n)

(* Stdio veneer == plain transform for arbitrary per-line functions
   drawn from a small family. *)
let prop_stdio_equals_transform =
  prop "stdio veneer == direct transform"
    QCheck2.Gen.(pair (int_bound 2) (small_list line_gen))
    (fun (f_i, lines) ->
      let funcs = [| String.uppercase_ascii; String.lowercase_ascii; (fun s -> s ^ "!") |] in
      let f = funcs.(f_i) in
      let via_stdio =
        let k = Kernel.create () in
        let src = Dev.text_source k lines in
        let filt =
          Stdio.filter_ro k ~upstream:src (fun stdin stdout ->
              Stdio.iter_lines (fun l -> Stdio.print_line stdout (f l)) stdin)
        in
        let out = ref [] in
        Kernel.run_driver k (fun ctx ->
            Pull.iter (fun v -> out := Value.to_str v :: !out) (Pull.connect ctx filt));
        List.rev !out
      in
      via_stdio = List.map f lines)

let suite =
  [
    prop_identity_all_disciplines;
    prop_eden_file_roundtrip;
    prop_namespace_roundtrip;
    prop_merge_preserves_source_order;
    prop_entity_prediction_exact;
    prop_sed_addressing;
    prop_stdio_equals_transform;
  ]
