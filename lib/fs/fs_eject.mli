(** The bootstrap transput system of §7.

    One ["UnixFileSystem"] Eject per (simulated) machine wraps a
    {!Unix_fs.t} and responds to:

    - [NewStream(path)] — returns the UID of a freshly created
      [UnixFile] Eject whose purpose is to respond to [Transfer]
      invocations with the file's contents, line by line.  When the user
      invokes [Close] on it, it deactivates and — never having
      checkpointed — disappears.
    - [UseStream(path, capability)] — the opposite: creates a [UnixFile]
      Eject that repeatedly invokes [Transfer] on the capability and
      records the data it receives; at end of stream the Unix file is
      written and the writer becomes awaitable via [Await].
    - [WriteFile], [Remove], [MakeDir], [ListDir] —
      direct conveniences used by utilities and tests.

    Streams are line-oriented: each [Transfer] item is a [Value.Str]
    holding one line without its newline. *)

module Kernel = Eden_kernel.Kernel
module Uid = Eden_kernel.Uid
module Value = Eden_kernel.Value

val create : Kernel.t -> ?node:Eden_net.Net.node_id -> Unix_fs.t -> Uid.t
(** The per-machine ["UnixFileSystem"] Eject. *)

(** Operation names, for callers building invocations by hand. *)

val op_write_file : string
val op_remove : string
val op_make_dir : string
val op_list_dir : string

(** {1 Client conveniences}

    Thin wrappers over the invocations above; all must run in a fiber. *)

val new_stream : Kernel.ctx -> fs:Uid.t -> string -> Uid.t
(** @raise Kernel.Eden_error on a missing file. *)

val use_stream : Kernel.ctx -> fs:Uid.t -> string -> Uid.t -> Uid.t
(** [use_stream ctx ~fs path stream] starts recording [stream] into
    [path]; returns the writer Eject to [await_writer] on. *)

val await_writer : Kernel.ctx -> Uid.t -> unit
(** Blocks until the writer has committed the file (and destroyed
    itself). *)

val close_stream : Kernel.ctx -> Uid.t -> unit

val read_lines : Kernel.ctx -> fs:Uid.t -> string -> string list
(** [NewStream] + drain + [Close]. *)

val copy_through :
  Kernel.ctx ->
  fs:Uid.t ->
  src:string ->
  dst:string ->
  Eden_transput.Transform.t list ->
  unit
(** The §7 demonstration: stream a Unix file out through a pipeline of
    read-only filter Ejects and record the result into another Unix
    file; blocks until committed. *)
