(** Dynamic stream redirection.

    The paper's conclusion: "Redirection of input and output can be
    provided very naturally in a system where each entity is referred to
    by means of a unique identifier.  Special file or stream descriptors
    are not needed."

    A redirector is an ordinary stream source whose {e actual} upstream
    can be switched at any moment by a [SetSource(source_uid)]
    invocation; it reads each upstream's {!Channel.output}.  Its
    consumers notice nothing: they keep naming the same UID and channel.
    Because it proxies, it adds one invocation per Transfer — the cost
    of the indirection, measured in the tests.

    Semantics at switch time: items already obtained from the old
    upstream are delivered first; the first Transfer {e after} the
    switch pulls from the new upstream.  An upstream's end of stream is
    passed through only when no redirection has been requested; a
    redirector with a pending switch survives its old upstream's end. *)

module Kernel = Eden_kernel.Kernel
module Uid = Eden_kernel.Uid
module Value = Eden_kernel.Value

val create : Kernel.t -> initial:Uid.t -> unit -> Uid.t
(** Serves {!Channel.output} by proxying the current upstream, starting
    with [initial], one item per Transfer; accepts [SetSource]. *)

val set_source : Kernel.ctx -> redirector:Uid.t -> Uid.t -> unit
(** Client convenience for [SetSource]. *)
