module Value = Eden_kernel.Value
module Kernel = Eden_kernel.Kernel
module Uid = Eden_kernel.Uid

(* --- Output ---------------------------------------------------------- *)

type out_stream = { w : Port.writer; line : Buffer.t; mutable out_closed : bool }

let attach_out w = { w; line = Buffer.create 80; out_closed = false }

let emit_line t =
  Port.write t.w (Value.Str (Buffer.contents t.line));
  Buffer.clear t.line

let output_char t c =
  if t.out_closed then failwith "Stdio.output_char: closed";
  if c = '\n' then emit_line t else Buffer.add_char t.line c

let output_string t s = String.iter (output_char t) s

let print_line t s =
  output_string t s;
  output_char t '\n'

let printf t fmt = Printf.ksprintf (print_line t) fmt

let close_out t =
  if not t.out_closed then begin
    t.out_closed <- true;
    if Buffer.length t.line > 0 then emit_line t;
    Port.close t.w
  end

(* --- Input ----------------------------------------------------------- *)

type in_stream = {
  pull : Pull.t;
  mutable pending : string option; (* a partially consumed line *)
  mutable pos : int; (* cursor into [pending] for input_char *)
  mutable newline_due : bool; (* the '\n' separating items *)
}

let attach_in pull = { pull; pending = None; pos = 0; newline_due = false }

let input_line t =
  match t.pending with
  | Some line ->
      (* A char-level reader left a partial line; hand back the rest. *)
      let rest = String.sub line t.pos (String.length line - t.pos) in
      t.pending <- None;
      t.pos <- 0;
      t.newline_due <- false;
      Some rest
  | None -> (
      match Pull.read t.pull with
      | Some v -> Some (Value.to_str v)
      | None -> None)

let input_char t =
  match t.pending with
  | Some line when t.pos < String.length line ->
      let c = line.[t.pos] in
      t.pos <- t.pos + 1;
      Some c
  | Some _ ->
      t.pending <- None;
      t.pos <- 0;
      t.newline_due <- false;
      Some '\n'
  | None -> (
      match Pull.read t.pull with
      | None -> None
      | Some v ->
          let line = Value.to_str v in
          if String.length line = 0 then Some '\n'
          else begin
            t.pending <- Some line;
            t.pos <- 1;
            t.newline_due <- true;
            Some line.[0]
          end)

let iter_lines f t =
  let rec go () =
    match input_line t with
    | Some l ->
        f l;
        go ()
    | None -> ()
  in
  go ()

(* --- The conventional filter ----------------------------------------- *)

let filter_ro k ~upstream body =
  Kernel.create_eject k ~dispatch:Kernel.Concurrent ~type_name:"stdio-filter"
    (fun ctx ~passive:_ ->
      let port = Port.create () in
      let w = Port.add_channel port ~capacity:0 Channel.output in
      let pull = Pull.connect ctx upstream in
      Kernel.spawn_worker ctx ~name:"stdio-filter/main" (fun () ->
          Port.await_demand w;
          let stdin = attach_in pull in
          let stdout = attach_out w in
          body stdin stdout;
          close_out stdout);
      Port.handlers port)
