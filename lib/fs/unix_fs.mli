(** An in-memory Unix-like file system.

    The paper's prototype bootstrapped its transput system over the Unix
    file system (§7: "currently most data of interest is in the Unix
    file system").  This module supplies that substrate: a tree of
    directories and byte files with absolute-path naming.  It is plain
    mutable state with no Ejects or fibers involved; the bootstrap
    Ejects in {!Fs_eject} wrap it.

    Paths are Unix-style: absolute ([/a/b]), with ["."], [".."] and
    repeated slashes normalised.  Relative paths are resolved against
    the root. *)

type t

type error =
  | Enoent  (** No such file or directory. *)
  | Enotdir  (** A non-final path component is not a directory. *)
  | Eisdir  (** File operation on a directory. *)
  | Eexist  (** Target already exists. *)
  | Enotempty  (** Directory not empty. *)
  | Einval  (** Malformed path or argument. *)

exception Error of error * string
(** The string is the offending path. *)

val error_message : error -> string

val create : unit -> t
(** An empty file system containing only the root directory. *)

(** {1 Paths} *)

val normalise : string -> string list
(** Path to component list; [".."] above the root clamps to the root.
    @raise Error Einval on empty components other than the root. *)

(** {1 Directories} *)

val mkdir : t -> string -> unit
(** @raise Error Eexist / Enoent / Enotdir. *)

val mkdir_p : t -> string -> unit
(** Creates missing ancestors; succeeds if the directory exists. *)

val rmdir : t -> string -> unit
(** @raise Error Enotempty if non-empty; Einval on the root. *)

val readdir : t -> string -> string list
(** Entry names, sorted. *)

(** {1 Files} *)

val write_file : t -> string -> string -> unit
(** Create or truncate. *)

val append_file : t -> string -> string -> unit
(** Creates the file if missing. *)

val read_file : t -> string -> string
val unlink : t -> string -> unit
val rename : t -> string -> string -> unit
(** Moves a file or directory; replaces an existing file target. *)

(** {1 Queries} *)

val exists : t -> string -> bool
val is_dir : t -> string -> bool
val is_file : t -> string -> bool
val size : t -> string -> int
(** @raise Error for missing paths or directories. *)

val total_files : t -> int
val total_bytes : t -> int
