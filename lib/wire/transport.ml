type kind = Unix_socket | Tcp

let kind_name = function Unix_socket -> "unix" | Tcp -> "tcp"

type server = { kind : kind; fd : Unix.file_descr; addr : Unix.sockaddr }

let tune kind fd =
  match kind with
  | Tcp -> Unix.setsockopt fd Unix.TCP_NODELAY true
  | Unix_socket -> ()

let listen kind =
  match kind with
  | Unix_socket ->
      (* temp_file reserves a unique name; bind wants the path free. *)
      let path = Filename.temp_file "eden-wire-" ".sock" in
      Unix.unlink path;
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind fd (Unix.ADDR_UNIX path);
      Unix.listen fd 16;
      { kind; fd; addr = Unix.ADDR_UNIX path }
  | Tcp ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt fd Unix.SO_REUSEADDR true;
      Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
      Unix.listen fd 16;
      { kind; fd; addr = Unix.getsockname fd }

let accept s =
  let fd, _ = Unix.accept s.fd in
  tune s.kind fd;
  fd

let dial s =
  let domain = match s.kind with Unix_socket -> Unix.PF_UNIX | Tcp -> Unix.PF_INET in
  let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
  Unix.connect fd s.addr;
  tune s.kind fd;
  fd

let close_server s =
  (try Unix.close s.fd with Unix.Unix_error _ -> ());
  match s.addr with
  | Unix.ADDR_UNIX path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | Unix.ADDR_INET _ -> ()

let pair kind =
  match kind with
  | Unix_socket -> Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0
  | Tcp ->
      let s = listen Tcp in
      Fun.protect
        ~finally:(fun () -> close_server s)
        (fun () ->
          let a = dial s in
          match Unix.accept s.fd with
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
              tune Tcp b;
              (a, b))
