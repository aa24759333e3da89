(** Channel identifiers (§5 of the paper).

    A multi-output Eject in the read-only discipline associates a
    channel identifier with each of its output streams; every [Transfer]
    request is qualified by one.  Two flavours exist:

    - [Num n] — ordinary integer identifiers, publishable in
      documentation, but forgeable: any Eject that can name you can read
      any numbered channel.
    - [Cap u] — capability identifiers.  Because {!Eden_kernel.Uid.t}
      values are unforgeable, only Ejects that were explicitly handed
      the capability can present it.  The cost is that whoever sets up a
      pipeline must first ask the filter for its channel UIDs (an extra
      connection-time invocation; measured in experiment T4). *)

type t = Num of int | Cap of Eden_kernel.Uid.t

val output : t
(** The conventional primary output, [Num 0]. *)

val report : t
(** The conventional report/monitoring stream, [Num 1]. *)

val equal : t -> t -> bool
val to_string : t -> string

val to_value : t -> Eden_kernel.Value.t
val of_value : Eden_kernel.Value.t -> t
(** @raise Eden_kernel.Value.Protocol_error on a value that is not a
    channel. *)
