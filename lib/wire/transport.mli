(** Socket plumbing for the multi-process cluster.

    Two interchangeable byte transports: a Unix-domain socket, and TCP
    on the loopback interface (NODELAY set — frames are small and
    latency is the experiment).  Every socket of a wire run is a
    {!pair} the parent makes before it forks, hub↔leaf and leaf↔leaf
    alike, so no process listens and no connection needs a handshake:
    each forked child keeps its own ends and a buffered {!Conn} takes
    them over. *)

type kind = Unix_socket | Tcp

val kind_name : kind -> string
(** ["unix"] / ["tcp"]. *)

val pair : kind -> Unix.file_descr * Unix.file_descr
(** Two connected ends of one stream of [kind], made in this process
    so that forked children can each keep one: a [socketpair] for Unix
    sockets; for TCP, a one-shot loopback listener that takes one dial
    and one accept, with the accepted peer checked to be that dial,
    and is closed before [pair] returns.
    @raise Failure if a TCP accept returns some other connection. *)
