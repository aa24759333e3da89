type entry =
  | Pick of { kind : string; n : int; chosen : int }
  | Note of { kind : string; arg : int }

type t = entry list

let equal (a : t) (b : t) = a = b

let picks t = List.filter_map (function Pick p -> Some p.chosen | Note _ -> None) t

let pick_entries t =
  List.filter_map (function Pick p -> Some (p.kind, p.n, p.chosen) | Note _ -> None) t

let keep kind k = match kind with None -> true | Some want -> String.equal want k

let decisions ?kind t =
  List.filter_map
    (function Pick p when keep kind p.kind -> Some (p.kind, p.chosen) | _ -> None)
    t

let pick_count t = List.length (picks t)
let nonzero_picks t = List.length (List.filter (fun c -> c <> 0) (picks t))

let line_of_entry = function
  | Pick { kind; n; chosen } -> Printf.sprintf "pick %s %d %d" kind n chosen
  | Note { kind; arg } -> Printf.sprintf "note %s %d" kind arg

let entry_of_line line =
  match String.split_on_char ' ' (String.trim line) with
  | [ "pick"; kind; n; chosen ] -> (
      try Some (Pick { kind; n = int_of_string n; chosen = int_of_string chosen })
      with _ -> None)
  | [ "note"; kind; arg ] -> (
      try Some (Note { kind; arg = int_of_string arg }) with _ -> None)
  | _ -> None
