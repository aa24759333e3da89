include M

let _ = after_include
