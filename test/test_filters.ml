(* The filter catalog, pure (Line.run) and through real pipelines. *)

module Cat = Eden_filters.Catalog
module Line = Eden_filters.Line
module Report = Eden_filters.Report
open Eden_kernel
module T = Eden_transput
module Topo = Eden_par.Topo

let check = Alcotest.check
let prop name ?(count = 100) gen f =
  Seed.to_alcotest (QCheck2.Test.make ~name ~count gen f)

let lines_t = Alcotest.(list string)

let test_strip_comments () =
  check lines_t "fortran"
    [ "      REAL X"; "      X = 1" ]
    (Line.run (Cat.strip_comments ()) [ "C a comment"; "      REAL X"; "C more"; "      X = 1" ]);
  check lines_t "custom prefix" [ "code" ] (Line.run (Cat.strip_comments ~prefix:"#" ()) [ "# c"; "code" ])

let test_grep () =
  check lines_t "grep" [ "abc"; "cab" ] (Line.run (Cat.grep "ab") [ "abc"; "xyz"; "cab" ]);
  check lines_t "grep_v" [ "xyz" ] (Line.run (Cat.grep_v "ab") [ "abc"; "xyz"; "cab" ])

let test_case_filters () =
  check lines_t "upcase" [ "AB" ] (Line.run Cat.upcase [ "aB" ]);
  check lines_t "downcase" [ "ab" ] (Line.run Cat.downcase [ "aB" ])

let test_rot13_involution () =
  check lines_t "rot13" [ "Uryyb, Jbeyq!" ] (Line.run Cat.rot13 [ "Hello, World!" ]);
  check lines_t "applied twice" [ "Hello" ] (Line.run Cat.rot13 (Line.run Cat.rot13 [ "Hello" ]))

let test_translate () =
  check lines_t "tr" [ "bcd" ] (Line.run (Cat.translate ~from:"abc" ~into:"bcd") [ "abc" ]);
  Alcotest.(check bool) "length mismatch" true
    (try
       let _ : T.Transform.t = Cat.translate ~from:"ab" ~into:"a" in
       false
     with Invalid_argument _ -> true)

let test_number_lines () =
  check lines_t "numbers"
    [ "   1  a"; "   2  b" ]
    (Line.run (Cat.number_lines ()) [ "a"; "b" ]);
  check lines_t "custom start/width" [ " 9  x"; "10  y" ]
    (Line.run (Cat.number_lines ~start:9 ~width:2 ()) [ "x"; "y" ])

let test_head_tail () =
  let input = [ "1"; "2"; "3"; "4"; "5" ] in
  check lines_t "head" [ "1"; "2" ] (Line.run (Cat.head 2) input);
  check lines_t "tail" [ "4"; "5" ] (Line.run (Cat.tail 2) input);
  check lines_t "tail short input" input (Line.run (Cat.tail 10) input)

let test_paginate () =
  let out = Line.run (Cat.paginate ~lines_per_page:2 ~title:"doc" ()) [ "a"; "b"; "c" ] in
  check lines_t "pages"
    [ "==== doc page 1 ===="; "a"; "b"; "==== doc page 2 ===="; "c" ]
    out

let test_paginate_invalid () =
  Alcotest.(check bool) "zero page" true
    (try
       let _ : T.Transform.t = Cat.paginate ~lines_per_page:0 () in
       false
     with Invalid_argument _ -> true)

let test_word_count () =
  check lines_t "wc" [ "2 5 24" ] (Line.run Cat.word_count [ "hello world foo"; "bar baz" ])

let test_sort_uniq_tac () =
  check lines_t "sort" [ "a"; "b"; "c" ] (Line.run Cat.sort_lines [ "c"; "a"; "b" ]);
  check lines_t "uniq" [ "a"; "b"; "a" ] (Line.run Cat.uniq [ "a"; "a"; "b"; "b"; "b"; "a" ]);
  check lines_t "tac" [ "c"; "b"; "a" ] (Line.run Cat.reverse_lines [ "a"; "b"; "c" ])

let test_squeeze_trim_expand () =
  check lines_t "squeeze" [ "a"; ""; "b" ] (Line.run Cat.squeeze_blank [ "a"; ""; ""; "  "; "b" ]);
  check lines_t "trim" [ "a"; "b" ] (Line.run Cat.trim_trailing [ "a   "; "b\t" ]);
  check lines_t "expand" [ "ab  x" ] (Line.run (Cat.expand_tabs ~tabstop:4 ()) [ "ab\tx" ])

let test_cut () =
  check lines_t "field 2" [ "b"; "y" ] (Line.run (Cat.cut ~delim:':' ~field:2) [ "a:b:c"; "x:y" ]);
  check lines_t "missing field" [ "" ] (Line.run (Cat.cut ~delim:':' ~field:5) [ "a:b" ])

let test_spell () =
  let dictionary = [ "the"; "cat"; "sat"; "on"; "mat" ] in
  check lines_t "misspellings" [ "teh"; "matt" ]
    (Line.run (Cat.spell ~dictionary) [ "the cat"; "teh sat on"; "matt" ])

let test_by_name () =
  (match Cat.by_name "grep" [ "x" ] with
  | Ok tr -> check lines_t "by_name grep" [ "x1" ] (Line.run tr [ "x1"; "y1" ])
  | Error e -> Alcotest.fail e);
  (match Cat.by_name "head" [ "notanint" ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "head should reject garbage");
  (match Cat.by_name "frobnicate" [] with
  | Error msg -> Alcotest.(check bool) "names the filter" true (Eden_util.Text.contains_sub ~sub:"frobnicate" msg)
  | Ok _ -> Alcotest.fail "unknown name accepted");
  List.iter
    (fun name ->
      match Cat.by_name name [ "1" ] with
      | Ok _ | Error _ -> ())
    Cat.names

let prop_catalog_composes_in_pipeline =
  (* Any pair of catalog filters gives the same result through a real
     read-only pipeline as pure in-process application. *)
  let safe = [| Cat.upcase; Cat.rot13; Cat.uniq; Cat.sort_lines; Cat.trim_trailing |] in
  let line = QCheck2.Gen.(string_size ~gen:(char_range 'a' 'z') (int_range 0 5)) in
  prop ~count:30 "pipeline composition = pure composition"
    QCheck2.Gen.(triple (int_bound 4) (int_bound 4) (small_list line))
    (fun (i, j, lines) ->
      let f1 = safe.(i) and f2 = safe.(j) in
      let k = Kernel.create () in
      let acc = ref [] in
      let p =
        Topo.pipeline k T.Pipeline.Read_only
          ~gen:
            (let rest = ref lines in
             fun () ->
               match !rest with
               | [] -> None
               | x :: tl ->
                   rest := tl;
                   Some (Value.Str x))
          ~filters:[ f1; f2 ]
          ~consume:(fun v -> acc := Value.to_str v :: !acc)
      in
      Kernel.run_driver k (fun _ -> T.Pipeline.run p);
      List.rev !acc = Line.run f2 (Line.run f1 lines))

(* --- report streams -------------------------------------------------- *)

let test_with_progress_reports () =
  let tr = Report.with_progress ~every:2 ~label:"job" T.Transform.identity in
  let input = List.map (fun s -> Value.Str s) [ "a"; "b"; "c" ] in
  let outs = ref [] and reps = ref [] in
  let next =
    let rest = ref input in
    fun () ->
      match !rest with
      | [] -> None
      | x :: tl ->
          rest := tl;
          Some x
  in
  tr next (fun v -> outs := v :: !outs) (fun v -> reps := v :: !reps);
  check lines_t "main untouched" [ "a"; "b"; "c" ] (List.map Value.to_str (List.rev !outs));
  check lines_t "progress + final"
    [ "job: 2 items"; "job: done, 3 items" ]
    (List.map Value.to_str (List.rev !reps))

let test_reporting_filter_ro_two_channels () =
  let k = Kernel.create () in
  let src = Eden_devices.Devices.text_source k [ "x"; "y"; "z" ] in
  let f =
    Report.filter_ro k ~upstream:src (Report.with_progress ~every:1 ~label:"f" Cat.upcase)
  in
  let data = ref [] and reports = ref [] in
  Kernel.run_driver k (fun ctx ->
      let pd = T.Pull.connect ctx ~channel:T.Channel.output f in
      T.Pull.iter (fun v -> data := Value.to_str v :: !data) pd;
      let pr = T.Pull.connect ctx ~channel:T.Channel.report f in
      T.Pull.iter (fun v -> reports := Value.to_str v :: !reports) pr);
  check lines_t "main" [ "X"; "Y"; "Z" ] (List.rev !data);
  check Alcotest.int "reports: 3 progress + 1 final" 4 (List.length !reports)

let suite =
  [
    ("strip comments", `Quick, test_strip_comments);
    ("grep", `Quick, test_grep);
    ("case filters", `Quick, test_case_filters);
    ("rot13 involution", `Quick, test_rot13_involution);
    ("translate", `Quick, test_translate);
    ("number lines", `Quick, test_number_lines);
    ("head/tail", `Quick, test_head_tail);
    ("paginate", `Quick, test_paginate);
    ("paginate invalid", `Quick, test_paginate_invalid);
    ("word count", `Quick, test_word_count);
    ("sort/uniq/tac", `Quick, test_sort_uniq_tac);
    ("squeeze/trim/expand", `Quick, test_squeeze_trim_expand);
    ("cut", `Quick, test_cut);
    ("spell", `Quick, test_spell);
    ("by_name registry", `Quick, test_by_name);
    ("with_progress reports", `Quick, test_with_progress_reports);
    ("reporting filter serves two channels", `Quick, test_reporting_filter_ro_two_channels);
    prop_catalog_composes_in_pipeline;
  ]
