module Value = Eden_kernel.Value
module Uid = Eden_kernel.Uid

type 'a t = { encode : 'a -> Value.t; decode : Value.t -> 'a }

let unit = { encode = (fun () -> Value.Unit); decode = Value.to_unit }
let bool = { encode = Value.bool; decode = Value.to_bool }
let int = { encode = Value.int; decode = Value.to_int }
let float = { encode = Value.float; decode = Value.to_float }
let string = { encode = Value.str; decode = Value.to_str }
let uid = { encode = Value.uid; decode = Value.to_uid }

let pair a b =
  {
    encode = (fun (x, y) -> Value.pair (a.encode x) (b.encode y));
    decode =
      (fun v ->
        let x, y = Value.to_pair v in
        (a.decode x, b.decode y));
  }

let triple a b c =
  {
    encode = (fun (x, y, z) -> Value.List [ a.encode x; b.encode y; c.encode z ]);
    decode =
      (fun v ->
        match Value.to_list v with
        | [ x; y; z ] -> (a.decode x, b.decode y, c.decode z)
        | _ -> raise (Value.Protocol_error "expected a triple"));
  }

let list a =
  {
    encode = (fun xs -> Value.List (List.map a.encode xs));
    decode = (fun v -> List.map a.decode (Value.to_list v));
  }

let option a =
  {
    encode = (function None -> Value.Unit | Some x -> Value.List [ a.encode x ]);
    decode =
      (function
      | Value.Unit -> None
      | Value.List [ x ] -> Some (a.decode x)
      | v -> raise (Value.Protocol_error ("expected an option, got " ^ Value.preview v)));
  }

let batch ?(max_items = 1024) a =
  if max_items < 1 then invalid_arg "Codec.batch: max_items must be at least 1";
  {
    encode =
      (fun xs ->
        let n = List.length xs in
        if n > max_items then
          invalid_arg
            (Printf.sprintf "Codec.batch: %d items exceed the %d-item frame" n max_items);
        Value.List (Value.Int n :: List.map a.encode xs));
    decode =
      (fun v ->
        match v with
        | Value.List (Value.Int n :: rest) ->
            if n < 0 then raise (Value.Protocol_error "batch: negative length");
            if n > max_items then
              raise
                (Value.Protocol_error
                   (Printf.sprintf "batch: %d items exceed the %d-item frame" n max_items));
            if List.length rest <> n then
              raise
                (Value.Protocol_error
                   (Printf.sprintf "batch: length %d does not match %d items" n
                      (List.length rest)));
            List.map a.decode rest
        (* The diagnostic previews the offending value with a hard byte
           bound — a hostile frame must not cost memory in the very
           message that rejects it. *)
        | v -> raise (Value.Protocol_error ("expected a batch, got " ^ Value.preview v)));
  }

let map of_a to_a c =
  { encode = (fun b -> c.encode (to_a b)); decode = (fun v -> of_a (c.decode v)) }

let tagged cases =
  {
    encode =
      (fun (tag, x) ->
        match List.assoc_opt tag cases with
        | Some c -> Value.pair (Value.Str tag) (c.encode x)
        | None -> invalid_arg ("Codec.tagged: unknown tag " ^ tag));
    decode =
      (fun v ->
        let tag, payload = Value.to_pair v in
        let tag = Value.to_str tag in
        match List.assoc_opt tag cases with
        | Some c -> (tag, c.decode payload)
        | None ->
            raise (Value.Protocol_error ("unknown tag: " ^ Value.preview (Value.Str tag))));
  }

let write c push x = Push.write push (c.encode x)
let iter c f pull = Pull.iter (fun v -> f (c.decode v)) pull

let lift_map ~in_ ~out f = Transform.map (fun v -> out.encode (f (in_.decode v)))

let lift_filter_map ~in_ ~out f =
  Transform.filter_map (fun v -> Option.map out.encode (f (in_.decode v)))
