(* The pipeline language: lexing, parsing, and full elaboration under
   all three disciplines. *)

module Shell = Eden_shell.Shell
module T = Eden_transput
module Fs = Eden_fs.Unix_fs

let check = Alcotest.check
let lines_t = Alcotest.(list string)

let ok = function
  | Ok v -> v
  | Error m -> Alcotest.failf "unexpected shell error: %s" m

let err = function
  | Error m -> m
  | Ok _ -> Alcotest.fail "expected an error"

(* --- lexing --------------------------------------------------------- *)

let test_lex_words () =
  check lines_t "plain" [ "a"; "b"; "c" ] (ok (Shell.lex "a  b\tc"));
  check lines_t "pipe splits" [ "a"; "|"; "b" ] (ok (Shell.lex "a|b"));
  check lines_t "empty" [] (ok (Shell.lex "   "))

let test_lex_quotes () =
  check lines_t "single" [ "hello world" ] (ok (Shell.lex "'hello world'"));
  check lines_t "double" [ "say"; "a|b" ] (ok (Shell.lex "say \"a|b\""));
  check lines_t "empty quoted" [ "" ] (ok (Shell.lex "''"));
  Alcotest.(check bool) "unterminated" true
    (match Shell.lex "'oops" with Error _ -> true | Ok _ -> false)

let test_lex_redirect () =
  check lines_t "2> token" [ "grep"; "x"; "2>"; "win" ] (ok (Shell.lex "grep x 2> win"));
  (* A word starting with 2 but not 2> stays a word. *)
  check lines_t "2x is a word" [ "head"; "2" ] (ok (Shell.lex "head 2"))

(* --- parsing -------------------------------------------------------- *)

let test_parse_stages () =
  let ast = ok (Shell.parse "count 3 | upcase | terminal") in
  check Alcotest.int "three stages" 3 (List.length ast);
  let s = List.nth ast 1 in
  check Alcotest.string "filter name" "upcase" s.Shell.name;
  Alcotest.(check bool) "no report" true (s.Shell.report = None)

let test_parse_report_redirection () =
  let ast = ok (Shell.parse "count 3 | grep x 2> win | terminal") in
  let s = List.nth ast 1 in
  check Alcotest.(option string) "window" (Some "win") s.Shell.report;
  check lines_t "redirect not an arg" [ "x" ] s.Shell.args

let test_parse_errors () =
  Alcotest.(check bool) "too short" true
    (Eden_util.Text.contains_sub ~sub:"source and a sink" (err (Shell.parse "terminal")));
  ignore (err (Shell.parse ""));
  ignore (err (Shell.parse "a | | b"));
  ignore (err (Shell.parse "count 1 | grep x 2> | terminal"))

(* --- running -------------------------------------------------------- *)

let test_run_basic () =
  let env = Shell.make_env () in
  let o = ok (Shell.run env "lines foo bar | upcase | terminal") in
  check lines_t "rendered" [ "FOO"; "BAR" ] o.Shell.rendered

let test_run_all_disciplines_agree () =
  let cmd = "count 6 n | grep-v 3 | number | terminal" in
  let results =
    List.map
      (fun d -> (ok (Shell.run (Shell.make_env ()) ~discipline:d cmd)).Shell.rendered)
      T.Pipeline.all_disciplines
  in
  match results with
  | [ a; b; c ] ->
      check lines_t "ro=wo" a b;
      check lines_t "ro=conv" a c;
      check Alcotest.int "five lines survive" 5 (List.length a)
  | _ -> Alcotest.fail "expected three results"

let test_run_file_roundtrip () =
  let env = Shell.make_env () in
  Fs.write_file env.Shell.fs "/in.txt" "c\na\nb\n";
  let o = ok (Shell.run env "file /in.txt | sort | out /sorted.txt") in
  check lines_t "nothing rendered" [] o.Shell.rendered;
  check Alcotest.string "file written" "a\nb\nc\n" (Fs.read_file env.Shell.fs "/sorted.txt")

let test_run_missing_file () =
  let env = Shell.make_env () in
  Alcotest.(check bool) "reports ENOENT" true
    (Eden_util.Text.contains_sub ~sub:"no such file" (err (Shell.run env "file /nope | terminal")))

let test_run_unknown_filter () =
  let env = Shell.make_env () in
  ignore (err (Shell.run env "count 1 | frobnicate | terminal"))

let test_run_source_sink_position () =
  let env = Shell.make_env () in
  Alcotest.(check bool) "sink first rejected" true
    (Eden_util.Text.contains_sub ~sub:"source" (err (Shell.run env "terminal | count 1")));
  Alcotest.(check bool) "source last rejected" true
    (Eden_util.Text.contains_sub ~sub:"sink" (err (Shell.run env "count 1 | lines a")))

let test_run_printer_sink () =
  let env = Shell.make_env () in
  let o = ok (Shell.run env "lines one two | paginate 2 | printer") in
  Alcotest.(check bool) "paper has header" true
    (List.exists (fun l -> Eden_util.Text.contains_sub ~sub:"page 1" l) o.Shell.rendered)

let test_run_reports_read_only () =
  let env = Shell.make_env () in
  let o = ok (Shell.run env "count 4 2> win | upcase 2> win | terminal") in
  check Alcotest.int "four lines" 4 (List.length o.Shell.rendered);
  match o.Shell.windows with
  | [ ("win", wlines) ] ->
      Alcotest.(check bool) "source reports present" true
        (List.exists (fun l -> Eden_util.Text.contains_sub ~sub:"count |" l) wlines);
      Alcotest.(check bool) "filter reports present" true
        (List.exists (fun l -> Eden_util.Text.contains_sub ~sub:"upcase |" l) wlines)
  | _ -> Alcotest.fail "expected one window"

let test_run_reports_write_only () =
  let env = Shell.make_env () in
  let o =
    ok (Shell.run env ~discipline:T.Pipeline.Write_only "count 4 2> win | upcase 2> win | terminal")
  in
  check Alcotest.int "four lines" 4 (List.length o.Shell.rendered);
  match o.Shell.windows with
  | [ ("win", wlines) ] ->
      Alcotest.(check bool) "both reporters present" true
        (List.exists (fun l -> Eden_util.Text.is_prefix ~prefix:"count:" l) wlines
        && List.exists (fun l -> Eden_util.Text.is_prefix ~prefix:"upcase:" l) wlines)
  | _ -> Alcotest.fail "expected one window"

let test_run_reports_rejected_conventionally () =
  let env = Shell.make_env () in
  Alcotest.(check bool) "conventional refuses 2>" true
    (Eden_util.Text.contains_sub ~sub:"asymmetric"
       (err
          (Shell.run env ~discipline:T.Pipeline.Conventional
             "count 4 2> win | upcase | terminal")))

let test_run_meters_disciplines () =
  (* The shell's own meters reproduce the paper's comparison. *)
  let run d = ok (Shell.run (Shell.make_env ()) ~discipline:d "count 16 | trim | null") in
  let ro = run T.Pipeline.Read_only and conv = run T.Pipeline.Conventional in
  Alcotest.(check bool)
    (Printf.sprintf "conventional (%d) ~2x read-only (%d)" conv.Shell.invocations
       ro.Shell.invocations)
    true
    (float_of_int conv.Shell.invocations /. float_of_int ro.Shell.invocations > 1.5);
  Alcotest.(check bool) "conventional has pipes" true (conv.Shell.entities > ro.Shell.entities)

let test_run_date_source () =
  let env = Shell.make_env () in
  let o = ok (Shell.run env "date 2 | terminal") in
  check Alcotest.int "two stamps" 2 (List.length o.Shell.rendered);
  Alcotest.(check bool) "virtual time text" true
    (List.for_all (fun l -> Eden_util.Text.is_prefix ~prefix:"virtual time" l) o.Shell.rendered)

let test_run_sed_filter () =
  let env = Shell.make_env () in
  let o = ok (Shell.run env "lines 'the cat' 'a dog' | sed 's/cat/lion/' | terminal") in
  check lines_t "sed in a pipeline" [ "the lion"; "a dog" ] o.Shell.rendered

let test_run_fold_filter () =
  let env = Shell.make_env () in
  let o = ok (Shell.run env "lines abcdef | fold 4 | terminal") in
  check lines_t "folded" [ "abcd"; "ef" ] o.Shell.rendered

let test_run_conventional_out () =
  let env = Shell.make_env () in
  let o =
    ok (Shell.run env ~discipline:T.Pipeline.Conventional "lines b a | sort | out /s.txt")
  in
  check lines_t "nothing rendered" [] o.Shell.rendered;
  check Alcotest.string "file written" "a\nb\n" (Fs.read_file env.Shell.fs "/s.txt");
  Alcotest.(check bool) "pipes counted in entities" true (o.Shell.entities >= 5)

let test_random_source_in_shell () =
  let env = Shell.make_env () in
  let o = ok (Shell.run env "random 4 | wc | terminal") in
  match o.Shell.rendered with
  | [ summary ] ->
      Alcotest.(check bool) "4 lines counted" true
        (Eden_util.Text.is_prefix ~prefix:"4 " summary)
  | _ -> Alcotest.fail "expected one wc summary line"

(* --- session builtins (`trace`, `stats`) ---------------------------- *)

module Kernel = Eden_kernel.Kernel
module Obs = Eden_obs.Obs

let test_trace_builtin_renders_ring () =
  let env = Shell.make_env () in
  Obs.enable_spans (Kernel.obs env.Shell.kernel);
  ignore (ok (Shell.run env "count 3 | upcase | terminal"));
  let lines = Shell.render_trace env.Shell.kernel in
  let n = List.length lines in
  Alcotest.(check bool) "events retained" true (n > 1);
  List.iteri
    (fun i l ->
      if i < n - 1 then
        Alcotest.(check bool) "event lines indented" true (Eden_util.Text.is_prefix ~prefix:"  " l))
    lines;
  let footer = List.nth lines (n - 1) in
  Alcotest.(check bool) "footer counts retained events" true
    (Eden_util.Text.is_prefix ~prefix:(Printf.sprintf "[%d event(s) retained" (n - 1)) footer);
  Alcotest.(check bool) "footer counts ring evictions" true
    (Eden_util.Text.contains_sub ~sub:"0 dropped" footer)

let test_trace_builtin_after_clear () =
  let env = Shell.make_env () in
  Obs.enable_spans (Kernel.obs env.Shell.kernel);
  ignore (ok (Shell.run env "count 2 | null"));
  Obs.clear_spans (Kernel.obs env.Shell.kernel);
  match Shell.render_trace env.Shell.kernel with
  | [ footer ] ->
      Alcotest.(check bool) "empty ring footer" true
        (Eden_util.Text.is_prefix ~prefix:"[0 event(s) retained" footer)
  | lines -> Alcotest.failf "expected footer only, got %d lines" (List.length lines)

let test_stats_builtin_sections () =
  let env = Shell.make_env () in
  Obs.enable_spans (Kernel.obs env.Shell.kernel);
  ignore (ok (Shell.run env "count 5 | upcase | terminal"));
  let lines = Shell.render_stats env.Shell.kernel in
  Alcotest.(check bool) "meter block present" true (List.length lines >= 2);
  let footer = List.nth lines (List.length lines - 1) in
  Alcotest.(check bool) "spans footer last" true
    (Eden_util.Text.is_prefix ~prefix:"spans:" footer);
  Alcotest.(check bool) "spans closed after a run" true
    (not (Eden_util.Text.is_prefix ~prefix:"spans: 0 closed" footer))

let test_stats_builtin_stable_between_runs () =
  (* `stats` is a pure rendering of session state: asking twice without
     running anything in between is bit-identical. *)
  let env = Shell.make_env () in
  ignore (ok (Shell.run env "lines a b | terminal"));
  check lines_t "stats idempotent"
    (Shell.render_stats env.Shell.kernel)
    (Shell.render_stats env.Shell.kernel)

let test_env_reuse () =
  (* One env, several pipelines: files persist between runs. *)
  let env = Shell.make_env () in
  ignore (ok (Shell.run env "lines x y z | out /data"));
  let o = ok (Shell.run env "file /data | wc | terminal") in
  check lines_t "wc over previous output" [ "3 3 6" ] o.Shell.rendered

let suite =
  [
    ("lex words", `Quick, test_lex_words);
    ("lex quotes", `Quick, test_lex_quotes);
    ("lex redirect", `Quick, test_lex_redirect);
    ("parse stages", `Quick, test_parse_stages);
    ("parse report redirection", `Quick, test_parse_report_redirection);
    ("parse errors", `Quick, test_parse_errors);
    ("run basic", `Quick, test_run_basic);
    ("disciplines agree", `Quick, test_run_all_disciplines_agree);
    ("file roundtrip", `Quick, test_run_file_roundtrip);
    ("missing file", `Quick, test_run_missing_file);
    ("unknown filter", `Quick, test_run_unknown_filter);
    ("source/sink position", `Quick, test_run_source_sink_position);
    ("printer sink", `Quick, test_run_printer_sink);
    ("reports read-only", `Quick, test_run_reports_read_only);
    ("reports write-only", `Quick, test_run_reports_write_only);
    ("reports rejected conventionally", `Quick, test_run_reports_rejected_conventionally);
    ("meters disciplines", `Quick, test_run_meters_disciplines);
    ("date source", `Quick, test_run_date_source);
    ("sed filter", `Quick, test_run_sed_filter);
    ("fold filter", `Quick, test_run_fold_filter);
    ("conventional out", `Quick, test_run_conventional_out);
    ("random source", `Quick, test_random_source_in_shell);
    ("trace builtin renders ring", `Quick, test_trace_builtin_renders_ring);
    ("trace builtin after clear", `Quick, test_trace_builtin_after_clear);
    ("stats builtin sections", `Quick, test_stats_builtin_sections);
    ("stats builtin stable", `Quick, test_stats_builtin_stable_between_runs);
    ("env reuse", `Quick, test_env_reuse);
  ]
