(* Only parsed: nothing here may count M.hidden_by_comment as used. *)
type r = { hidden_by_field : int }

let _ = { hidden_by_field = 0 }.hidden_by_field
let _ = "M.hidden_by_string"
let _ = N.hidden_by_namesake 1
let _ = Fixture_lib.M.qualified

module X = M

let _ = X.through_alias
let _ = let open M in under_let_open
let _ = M.(under_local_open)

open M

let _ = under_open
let _ = function shadowed_under_open -> shadowed_under_open
let _ = try 0 with Failure shadowed_under_open -> String.length shadowed_under_open
let rec shadowed_under_open n = if n = 0 then 0 else shadowed_under_open (n - 1)
