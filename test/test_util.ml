(* Unit and property tests for Eden_util. *)

open Eden_util

let check = Alcotest.check
let prop name ?(count = 200) gen f =
  Seed.to_alcotest (QCheck2.Test.make ~name ~count gen f)

(* ------------------------------------------------------------------ *)
(* Prng                                                               *)
(* ------------------------------------------------------------------ *)

let test_prng_deterministic () =
  let a = Prng.create 42L and b = Prng.create 42L in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Prng.next_int64 a) (Prng.next_int64 b)
  done

let test_prng_copy () =
  let a = Prng.create 7L in
  ignore (Prng.next_int64 a);
  let b = Prng.copy a in
  for _ = 1 to 50 do
    check Alcotest.int64 "copy tracks original" (Prng.next_int64 a) (Prng.next_int64 b)
  done

let test_prng_split_independent () =
  let a = Prng.create 1L in
  let child = Prng.split a in
  (* Child and parent streams should not coincide. *)
  let same = ref 0 in
  for _ = 1 to 64 do
    if Int64.equal (Prng.next_int64 a) (Prng.next_int64 child) then incr same
  done;
  Alcotest.(check bool) "streams diverge" true (!same < 4)

let test_prng_split_n () =
  let a = Prng.create 9L and b = Prng.create 9L in
  let kids = Prng.split_n a 4 in
  Alcotest.(check int) "count" 4 (Array.length kids);
  (* split_n is just n splits in order: same seed, same children. *)
  Array.iter
    (fun kid ->
      let kid' = Prng.split b in
      for _ = 1 to 16 do
        check Alcotest.int64 "split_n = repeated split" (Prng.next_int64 kid')
          (Prng.next_int64 kid)
      done)
    kids;
  Alcotest.(check (array (list Alcotest.int64))) "zero children" [||]
    (Array.map (fun _ -> []) (Prng.split_n a 0));
  Alcotest.check_raises "negative count"
    (Invalid_argument "Prng.split_n: negative count") (fun () ->
      ignore (Prng.split_n a (-1)))

(* Sibling streams must not correlate: distinct pairwise, and no
   pairwise-equal draws beyond chance.  This is what makes
   split-per-domain sound — each domain's randomness is its own. *)
let test_prng_split_n_uncorrelated () =
  let kids = Prng.split_n (Prng.create 2024L) 8 in
  let draws = Array.map (fun g -> Array.init 64 (fun _ -> Prng.next_int64 g)) kids in
  Array.iteri
    (fun i di ->
      Array.iteri
        (fun j dj ->
          if i < j then begin
            Alcotest.(check bool)
              (Printf.sprintf "streams %d,%d differ" i j)
              false (di = dj);
            let coincidences = ref 0 in
            Array.iteri
              (fun k x -> if Int64.equal x dj.(k) then incr coincidences)
              di;
            Alcotest.(check bool)
              (Printf.sprintf "streams %d,%d share no draws" i j)
              true (!coincidences = 0)
          end)
        draws)
    draws

(* Splitting must not disturb the parent's own stream relative to a
   parent that split a different number of children — each child is
   exactly one parent draw. *)
let test_prng_split_advances_parent_once () =
  let a = Prng.create 77L and b = Prng.create 77L in
  ignore (Prng.split_n a 3);
  ignore (Prng.split b);
  ignore (Prng.split b);
  ignore (Prng.split b);
  for _ = 1 to 32 do
    check Alcotest.int64 "parent stream agrees" (Prng.next_int64 a)
      (Prng.next_int64 b)
  done

let test_prng_int_bounds () =
  let g = Prng.create 99L in
  for _ = 1 to 1000 do
    let x = Prng.int g 17 in
    Alcotest.(check bool) "in range" true (x >= 0 && x < 17)
  done

let test_prng_int_in () =
  let g = Prng.create 5L in
  for _ = 1 to 500 do
    let x = Prng.int_in g (-3) 9 in
    Alcotest.(check bool) "in closed range" true (x >= -3 && x <= 9)
  done

let test_prng_float_bounds () =
  let g = Prng.create 11L in
  for _ = 1 to 1000 do
    let x = Prng.float g 2.5 in
    Alcotest.(check bool) "in range" true (x >= 0.0 && x < 2.5)
  done

let test_prng_invalid () =
  let g = Prng.create 3L in
  Alcotest.check_raises "zero bound" (Invalid_argument "Prng.int: bound must be positive")
    (fun () -> ignore (Prng.int g 0));
  Alcotest.check_raises "empty choose" (Invalid_argument "Prng.choose: empty array") (fun () ->
      ignore (Prng.choose g [||]))

let test_prng_shuffle_permutes () =
  let g = Prng.create 123L in
  let a = Array.init 50 Fun.id in
  Prng.shuffle g a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  check Alcotest.(array int) "same multiset" (Array.init 50 Fun.id) sorted

let test_prng_exponential_positive () =
  let g = Prng.create 321L in
  for _ = 1 to 200 do
    Alcotest.(check bool) "positive" true (Prng.exponential g 3.0 >= 0.0)
  done

(* ------------------------------------------------------------------ *)
(* Table                                                              *)
(* ------------------------------------------------------------------ *)

let test_table_render () =
  let t = Table.create ~title:"demo" ~columns:[ ("name", Table.Left); ("n", Table.Right) ] in
  Table.add_row t [ "alpha"; "1" ];
  Table.add_row t [ "b"; "100" ];
  let out = Table.render t in
  Alcotest.(check bool) "title present" true (Text.is_prefix ~prefix:"demo\n" out);
  (* "b" padded to width 5, two-space separator, "100" right-aligned in
     width 3: six spaces between. *)
  Alcotest.(check bool) "right aligned" true (Text.contains_sub ~sub:"b      100" out)

let test_table_row_width () =
  let t = Table.create ~title:"x" ~columns:[ ("a", Table.Left) ] in
  Alcotest.check_raises "wrong width" (Invalid_argument "Table.add_row: row width differs from header")
    (fun () -> Table.add_row t [ "1"; "2" ])

let test_table_cells () =
  check Alcotest.string "int" "42" (Table.cell_int 42);
  check Alcotest.string "float" "3.14" (Table.cell_float 3.14159);
  check Alcotest.string "float decimals" "3.1416" (Table.cell_float ~decimals:4 3.14159);
  check Alcotest.string "ratio" "1.97x" (Table.cell_ratio 1.9666)

(* ------------------------------------------------------------------ *)
(* Text                                                               *)
(* ------------------------------------------------------------------ *)

let test_split_lines () =
  check Alcotest.(list string) "trailing nl" [ "a"; "b" ] (Text.split_lines "a\nb\n");
  check Alcotest.(list string) "no trailing nl" [ "a"; "b" ] (Text.split_lines "a\nb");
  check Alcotest.(list string) "empty" [] (Text.split_lines "");
  check Alcotest.(list string) "interior empties" [ "a"; ""; "b" ] (Text.split_lines "a\n\nb")

let test_join_lines () =
  check Alcotest.string "join" "a\nb\n" (Text.join_lines [ "a"; "b" ]);
  check Alcotest.string "join empty" "" (Text.join_lines [])

let prop_lines_roundtrip =
  let line = QCheck2.Gen.(string_size ~gen:(char_range 'a' 'z') (int_range 0 10)) in
  prop "split . join = id on line lists" QCheck2.Gen.(small_list line) (fun lines ->
      Text.split_lines (Text.join_lines lines) = lines)

let test_affixes () =
  Alcotest.(check bool) "prefix yes" true (Text.is_prefix ~prefix:"foo" "foobar");
  Alcotest.(check bool) "prefix no" false (Text.is_prefix ~prefix:"bar" "foobar");
  Alcotest.(check bool) "suffix yes" true (Text.is_suffix ~suffix:"bar" "foobar");
  Alcotest.(check bool) "suffix no" false (Text.is_suffix ~suffix:"foo" "foobar");
  Alcotest.(check bool) "contains" true (Text.contains_sub ~sub:"oba" "foobar");
  check Alcotest.(option int) "find" (Some 2) (Text.find_sub ~sub:"oba" "foobar");
  check Alcotest.(option int) "find missing" None (Text.find_sub ~sub:"zz" "foobar")

let test_replace_all () =
  check Alcotest.string "simple" "xbxb" (Text.replace_all ~sub:"a" ~by:"x" "abab");
  check Alcotest.string "grows" "xyxy" (Text.replace_all ~sub:"a" ~by:"xy" "aa");
  check Alcotest.string "no match" "abc" (Text.replace_all ~sub:"z" ~by:"q" "abc")

let test_chunks () =
  check Alcotest.(list string) "even" [ "ab"; "cd" ] (Text.chunks ~size:2 "abcd");
  check Alcotest.(list string) "ragged" [ "abc"; "d" ] (Text.chunks ~size:3 "abcd");
  check Alcotest.(list string) "empty" [] (Text.chunks ~size:4 "")

let prop_chunks_concat =
  prop "concat . chunks = id"
    QCheck2.Gen.(pair (int_range 1 7) (string_size ~gen:(char_range 'a' 'z') (int_range 0 40)))
    (fun (size, s) -> String.concat "" (Text.chunks ~size s) = s)

let test_expand_tabs () =
  check Alcotest.string "col 0" "        x" (Text.expand_tabs ~tabstop:8 "\tx");
  check Alcotest.string "mid col" "ab      x" (Text.expand_tabs ~tabstop:8 "ab\tx");
  check Alcotest.string "tabstop 4" "ab  x" (Text.expand_tabs ~tabstop:4 "ab\tx")

let test_words () =
  check Alcotest.(list string) "basic" [ "a"; "bc"; "d" ] (Text.words "  a bc\td \n");
  check Alcotest.(list string) "empty" [] (Text.words "   ")

let test_padding () =
  check Alcotest.string "pad right" "ab  " (Text.pad_right 4 "ab");
  check Alcotest.string "pad left" "  ab" (Text.pad_left 4 "ab");
  check Alcotest.string "no pad needed" "abcdef" (Text.pad_right 4 "abcdef")

let suite =
  [
    ("prng deterministic", `Quick, test_prng_deterministic);
    ("prng copy", `Quick, test_prng_copy);
    ("prng split independent", `Quick, test_prng_split_independent);
    ("prng split_n = repeated split", `Quick, test_prng_split_n);
    ("prng split_n siblings uncorrelated", `Quick, test_prng_split_n_uncorrelated);
    ("prng split advances parent once", `Quick, test_prng_split_advances_parent_once);
    ("prng int bounds", `Quick, test_prng_int_bounds);
    ("prng int_in bounds", `Quick, test_prng_int_in);
    ("prng float bounds", `Quick, test_prng_float_bounds);
    ("prng invalid args", `Quick, test_prng_invalid);
    ("prng shuffle permutes", `Quick, test_prng_shuffle_permutes);
    ("prng exponential positive", `Quick, test_prng_exponential_positive);
    ("table render", `Quick, test_table_render);
    ("table row width", `Quick, test_table_row_width);
    ("table cells", `Quick, test_table_cells);
    ("text split_lines", `Quick, test_split_lines);
    ("text join_lines", `Quick, test_join_lines);
    ("text affixes", `Quick, test_affixes);
    ("text replace_all", `Quick, test_replace_all);
    ("text chunks", `Quick, test_chunks);
    ("text expand_tabs", `Quick, test_expand_tabs);
    ("text words", `Quick, test_words);
    ("text padding", `Quick, test_padding);
    prop_lines_roundtrip;
    prop_chunks_concat;
  ]
