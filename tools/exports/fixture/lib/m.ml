let hidden_by_field = 1
let hidden_by_comment = 2
let hidden_by_string = 3
let hidden_by_namesake x = x
let used_only_here x = x + 1
let qualified = 4
let through_alias = 5
let under_open = 6
let under_let_open = 7
let under_local_open = 8
let after_include = 9

module Sub = struct
  let used_only_here_qualified = 10
end

let _ = used_only_here Sub.used_only_here_qualified

let shadowed_here = 11
let shadowed_under_open = 12
let _ = let shadowed_here = 0 in shadowed_here
let _ = (fun shadowed_here -> shadowed_here) 0
let _ = match 0 with shadowed_here -> shadowed_here
