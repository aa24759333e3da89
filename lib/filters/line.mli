(** Lifting line functions into stream transforms.

    Stream items throughout the filter library are [Value.Str] lines
    (without the newline); these helpers do the boxing so the catalog
    can be written against plain strings.  A non-string item reaching a
    line filter raises [Value.Protocol_error], surfacing as an error
    reply — streams are homogeneous (§6). *)

module Value = Eden_kernel.Value

val map : (string -> string) -> Eden_transput.Transform.t
val keep : (string -> bool) -> Eden_transput.Transform.t

val expand : (string -> string list) -> Eden_transput.Transform.t
(** One input line to zero or more output lines. *)

val stateful :
  init:'s ->
  step:('s -> string -> 's * string list) ->
  flush:('s -> string list) ->
  Eden_transput.Transform.t

val run : Eden_transput.Transform.t -> string list -> string list
(** Pure in-process execution on lines, for tests. *)
