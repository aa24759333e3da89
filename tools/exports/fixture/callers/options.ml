(* Only parsed: each application below passes O's options in one form. *)
let _ = O.constant ()
let _ = O.internal ()
let _ = O.by_label ~x:1 ()
let _ = O.by_optional ?x:(Some 1) ()
let x = 1
let _ = O.by_pun ~x ()
let _ = let x = Some 1 in O.by_optional_pun ?x ()
let partial = O.by_partial ~x:1
let _ = partial 2 3
let _ = 1 |> O.by_pipe ~x:2
let _ = 1 |> O.piped_plain
let _ = O.by_apply_op ~x:1 @@ ()
let _ = O.two ~y:1 ()

module X = O

let _ = X.via_alias ~x:1 ()
let _ = let open O in via_let_open ~x:1 ()
let _ = O.(via_local_open ~x:1 ())
let _ = List.map O.unapplied [ () ]
let _ = O.hidden_by_local ()

open O

let _ = via_open ~x:1 ()
let _ =
  let hidden_by_local ?(x = 0) () = x in
  hidden_by_local ~x:1 ()
