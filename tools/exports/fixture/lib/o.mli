val constant : ?x:int -> unit -> int
val internal : ?x:int -> unit -> int
val by_label : ?x:int -> unit -> int
val by_optional : ?x:int -> unit -> int
val by_pun : ?x:int -> unit -> int
val by_optional_pun : ?x:int -> unit -> int
val by_partial : ?x:int -> int -> int -> int
val by_pipe : ?x:int -> int -> int
val piped_plain : ?x:int -> int -> int
val by_apply_op : ?x:int -> unit -> int
val via_alias : ?x:int -> unit -> int
val via_open : ?x:int -> unit -> int
val via_let_open : ?x:int -> unit -> int
val via_local_open : ?x:int -> unit -> int
val unapplied : ?x:int -> unit -> int
val hidden_by_local : ?x:int -> unit -> int
val two : ?x:int -> ?y:int -> unit -> int
