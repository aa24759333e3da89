(** Eden-native files: files as active Ejects (§2).

    "In Eden, files are Ejects: they are active rather than passive
    entities.  An Eden file would itself be able to respond to open,
    close, read and write invocations rather than being a mere data
    structure acted upon by operating system primitives.  Once a file
    has been written, the data is committed to stable storage by
    Checkpointing."

    This module is the §7 "full Eden file system" subset (transactions
    excluded, as there).  A file Eject supports {e two} protocols at
    once, the possibility §6 raises explicitly:

    - the {b stream} protocol: [OpenRead] mints a capability channel
      serving a snapshot of the contents line by line; [OpenWrite] mints
      a capability channel accepting deposits, whose end-of-stream
      commits the new contents (and checkpoints);
    - a {b Map} protocol for random access: [ReadAt], [WriteAt],
      [Size], [TruncateTo] — each write commits immediately.

    Contents are committed by Checkpoint, so a crashed file Eject
    reactivates with its last committed contents; writes whose stream
    had not reached end-of-stream at the crash are lost, exactly the
    passive-representation semantics of §1. *)

module Kernel = Eden_kernel.Kernel
module Uid = Eden_kernel.Uid
module Value = Eden_kernel.Value
module T = Eden_transput

val create :
  Kernel.t -> ?node:Eden_net.Net.node_id -> ?initial:string list -> unit -> Uid.t

(** {1 Client conveniences} (fiber context) *)

val open_read : Kernel.ctx -> Uid.t -> T.Channel.t
(** A capability channel over a snapshot of the current contents;
    concurrent readers each get their own. *)

val read_all : Kernel.ctx -> Uid.t -> string list
(** [open_read] and drain. *)

val open_write : Kernel.ctx -> Uid.t -> T.Channel.t
(** A capability channel accepting this writer's lines; contents commit
    atomically when the writer sends end of stream, replacing the old
    ones.  Concurrent writers are isolated; last commit wins. *)

val write_all : Kernel.ctx -> ?append:bool -> Uid.t -> string list -> unit
(** [open_write] (appending to the committed contents when [append]),
    push everything, close (= commit). *)

val read_at : Kernel.ctx -> Uid.t -> int -> string
(** @raise Kernel.Eden_error when out of bounds. *)

val write_at : Kernel.ctx -> Uid.t -> int -> string -> unit
(** In-place line update, committed immediately.
    @raise Kernel.Eden_error when out of bounds. *)

val size : Kernel.ctx -> Uid.t -> int
(** Number of lines. *)

val truncate_to : Kernel.ctx -> Uid.t -> int -> unit
(** Keep the first [n] lines.  @raise Kernel.Eden_error on negative
    [n]. *)
