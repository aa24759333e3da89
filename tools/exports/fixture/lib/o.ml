let f ?(x = 0) () = x
let constant = f
let internal = f
let by_label = f
let by_optional = f
let by_pun = f
let by_optional_pun = f
let by_partial ?(x = 0) a b = x + a + b
let by_pipe ?(x = 0) a = x + a
let piped_plain = by_pipe
let by_apply_op = f
let via_alias = f
let via_open = f
let via_let_open = f
let via_local_open = f
let unapplied = f
let hidden_by_local = f
let two ?(x = 0) ?(y = 0) () = x + y
let _ = internal ~x:1 ()
