val hidden_by_field : int
val hidden_by_comment : int
val hidden_by_string : int
val hidden_by_namesake : int -> int
val used_only_here : int -> int
val qualified : int
val through_alias : int
val under_open : int
val under_let_open : int
val under_local_open : int
val after_include : int

module Sub : sig
  val used_only_here_qualified : int
end

val shadowed_here : int
val shadowed_under_open : int
