(** Socket plumbing for the multi-process cluster.

    Two interchangeable byte transports: a Unix-domain socket in the
    temp directory, and TCP on the loopback interface with an
    OS-assigned port (NODELAY set — frames are small and latency is
    the experiment).  The hub listens, each leaf dials, and the
    handshake runs over the blocking [file_descr]s with
    {!Frame.read}/{!Frame.write} before a buffered {!Conn} takes them
    over.  Leaf-to-leaf links are {!pair}s the parent makes before it
    forks. *)

type kind = Unix_socket | Tcp

val kind_name : kind -> string
(** ["unix"] / ["tcp"]. *)

type server

val listen : kind -> server
val accept : server -> Unix.file_descr
val dial : server -> Unix.file_descr
(** Connect to [server]'s address; usable after [fork] in the child. *)

val pair : kind -> Unix.file_descr * Unix.file_descr
(** Two connected ends of one stream of [kind], made in this process
    so that forked children can each keep one: a [socketpair] for Unix
    sockets; for TCP, a loopback listen, one dial and one accept, with
    the accepted peer checked to be that dial.
    @raise Failure if a TCP accept returns some other connection. *)

val close_server : server -> unit
(** Close the listening socket and unlink the Unix-socket path. *)
