type kind = Unix_socket | Tcp

let kind_name = function Unix_socket -> "unix" | Tcp -> "tcp"

let pair kind =
  match kind with
  | Unix_socket -> Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0
  | Tcp ->
      let l = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> Unix.close l)
        (fun () ->
          Unix.setsockopt l Unix.SO_REUSEADDR true;
          Unix.bind l (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
          Unix.listen l 1;
          let a = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
          match
            Unix.connect a (Unix.getsockname l);
            Unix.accept l
          with
          | exception e ->
              Unix.close a;
              raise e
          | b, peer ->
              (* The listener is open for this one dial: anything else
                 that reached it first is not our other end. *)
              if peer <> Unix.getsockname a then begin
                List.iter Unix.close [ a; b ];
                failwith "Transport.pair: accepted a connection that is not our own dial"
              end;
              List.iter (fun fd -> Unix.setsockopt fd Unix.TCP_NODELAY true) [ a; b ];
              (a, b))
