module Value = Eden_kernel.Value
module Kernel = Eden_kernel.Kernel
module T = Eden_transput

(* --- comm ------------------------------------------------------------ *)

let comm_step emit =
  (* Merge-walk two sorted cursors; returns a function of two "next"
     thunks. *)
  fun next_l next_r ->
    let rec go l r =
      match l, r with
      | None, None -> ()
      | Some a, None ->
          emit ("<\t" ^ a);
          go (next_l ()) None
      | None, Some b ->
          emit (">\t" ^ b);
          go None (next_r ())
      | Some a, Some b ->
          let c = String.compare a b in
          if c = 0 then begin
            emit ("=\t" ^ a);
            go (next_l ()) (next_r ())
          end
          else if c < 0 then begin
            emit ("<\t" ^ a);
            go (next_l ()) r
          end
          else begin
            emit (">\t" ^ b);
            go l (next_r ())
          end
    in
    go (next_l ()) (next_r ())

let comm left right =
  let out = ref [] in
  let cursor lst =
    let rest = ref lst in
    fun () ->
      match !rest with
      | [] -> None
      | x :: tl ->
          rest := tl;
          Some x
  in
  comm_step (fun l -> out := l :: !out) (cursor left) (cursor right);
  List.rev !out

(* --- diff ------------------------------------------------------------ *)

(* Standard O(n*m) LCS table; fine at the scale of line streams in a
   simulation.  [backtrack] recovers an edit script. *)
let lcs_table a b =
  let n = Array.length a and m = Array.length b in
  let tbl = Array.make_matrix (n + 1) (m + 1) 0 in
  for i = n - 1 downto 0 do
    for j = m - 1 downto 0 do
      tbl.(i).(j) <-
        (if String.equal a.(i) b.(j) then 1 + tbl.(i + 1).(j + 1)
         else max tbl.(i + 1).(j) tbl.(i).(j + 1))
    done
  done;
  tbl

let lcs_length left right =
  let a = Array.of_list left and b = Array.of_list right in
  (lcs_table a b).(0).(0)

type edit = Keep | Del of string | Add of string

let edits a b =
  let tbl = lcs_table a b in
  let n = Array.length a and m = Array.length b in
  let rec go i j acc =
    if i < n && j < m && String.equal a.(i) b.(j) then go (i + 1) (j + 1) (Keep :: acc)
    else if j < m && (i = n || tbl.(i).(j + 1) >= tbl.(i + 1).(j)) then
      go i (j + 1) (Add b.(j) :: acc)
    else if i < n then go (i + 1) j (Del a.(i) :: acc)
    else List.rev acc
  in
  go 0 0 []

(* Group consecutive non-Keep edits into hunks and render them in the
   classic "NcM" / "NdM" / "NaM" style. *)
let diff left right =
  let a = Array.of_list left and b = Array.of_list right in
  let out = ref [] in
  let emit l = out := l :: !out in
  let flush_hunk l0 dels r0 adds =
    let dels = List.rev dels and adds = List.rev adds in
    let nd = List.length dels and na = List.length adds in
    let span n len = if len <= 1 then string_of_int n else Printf.sprintf "%d,%d" n (n + len - 1) in
    (match nd, na with
    | 0, _ -> emit (Printf.sprintf "%da%s" l0 (span (r0 + 1) na))
    | _, 0 -> emit (Printf.sprintf "%sd%d" (span (l0 + 1) nd) r0)
    | _, _ -> emit (Printf.sprintf "%sc%s" (span (l0 + 1) nd) (span (r0 + 1) na)));
    List.iter (fun l -> emit ("< " ^ l)) dels;
    if nd > 0 && na > 0 then emit "---";
    List.iter (fun l -> emit ("> " ^ l)) adds
  in
  let rec walk es li ri dels adds hunk_l hunk_r =
    let in_hunk = dels <> [] || adds <> [] in
    match es with
    | [] -> if in_hunk then flush_hunk hunk_l dels hunk_r adds
    | Keep :: rest ->
        if in_hunk then flush_hunk hunk_l dels hunk_r adds;
        walk rest (li + 1) (ri + 1) [] [] (li + 1) (ri + 1)
    | Del l :: rest ->
        let hunk_l = if in_hunk then hunk_l else li in
        let hunk_r = if in_hunk then hunk_r else ri in
        walk rest (li + 1) ri (l :: dels) adds hunk_l hunk_r
    | Add l :: rest ->
        let hunk_l = if in_hunk then hunk_l else li in
        let hunk_r = if in_hunk then hunk_r else ri in
        walk rest li (ri + 1) dels (l :: adds) hunk_l hunk_r
  in
  walk (edits a b) 0 0 [] [] 0 0;
  List.rev !out

(* --- stages ----------------------------------------------------------- *)

let two_input_stage k ?node ~name ~left ~right body =
  T.Stage.custom k ?node ~name (fun ctx ~passive:_ ->
      let port = T.Port.create () in
      let w = T.Port.add_channel port ~capacity:0 T.Channel.output in
      Kernel.spawn_worker ctx ~name:(name ^ "/compare") (fun () ->
          T.Port.await_demand w;
          let lu, lc = left and ru, rc = right in
          let pl = T.Pull.connect ctx ~channel:lc lu in
          let pr = T.Pull.connect ctx ~channel:rc ru in
          body
            (fun () -> Option.map Value.to_str (T.Pull.read pl))
            (fun () -> Option.map Value.to_str (T.Pull.read pr))
            (fun l -> T.Port.write w (Value.Str l));
          T.Port.close w);
      T.Port.handlers port)

let comm_stage k ~left ~right () =
  two_input_stage k ~name:"comm" ~left ~right (fun next_l next_r emit ->
      comm_step emit next_l next_r)

let diff_stage k ?node ~left ~right () =
  two_input_stage k ?node ~name:"diff" ~left ~right (fun next_l next_r emit ->
      let drain next =
        let rec go acc = match next () with Some l -> go (l :: acc) | None -> List.rev acc in
        go []
      in
      let a = drain next_l in
      let b = drain next_r in
      List.iter emit (diff a b))
