(** Eden directory Ejects (§2 of the paper).

    A directory maps mnemonic strings to UIDs.  It responds to
    [Lookup], [AddEntry], [DeleteEntry] — and to [List], which follows
    the paper exactly: "the effect of a List invocation is to prepare
    the directory to receive a number of Read invocations, which
    transfer a printable representation of the directory's contents to
    the reader".  Concretely, [List] mints a fresh capability channel,
    loads the listing behind it, and returns the channel identifier; the
    caller then [Transfer]s from that channel like from any other
    source.  Directories therefore {e are} stream sources — behavioural
    compatibility in action.

    Directories checkpoint after every mutation, so they survive
    crashes; since entries are [Value.t] UIDs the capabilities come back
    intact.

    The {!concatenator} implements §2's Directory Concatenator: given a
    list of directories it behaves as their ordered union under
    [Lookup] — the PATH mechanism — and is behaviourally substitutable
    for a directory wherever only [Lookup] is used. *)

module Kernel = Eden_kernel.Kernel
module Uid = Eden_kernel.Uid
module Value = Eden_kernel.Value

val create : Kernel.t -> ?node:Eden_net.Net.node_id -> unit -> Uid.t
val concatenator : Kernel.t -> Uid.t list -> Uid.t

val op_list : string

(** {1 Client conveniences} (fiber context) *)

val lookup : Kernel.ctx -> dir:Uid.t -> string -> Uid.t option
(** [None] when the name is absent ([Lookup] replies an error). *)

val add_entry : Kernel.ctx -> dir:Uid.t -> string -> Uid.t -> unit
(** @raise Kernel.Eden_error if the name is already bound. *)

val delete_entry : Kernel.ctx -> dir:Uid.t -> string -> unit

val list_lines : Kernel.ctx -> dir:Uid.t -> string list
(** Invoke [List] and drain the returned stream: one printable line per
    entry, sorted by name. *)
