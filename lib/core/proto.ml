module Value = Eden_kernel.Value

let transfer_op = "Transfer"
let deposit_op = "Deposit"

let transfer_request ?seq chan ~credit =
  let base = [ Channel.to_value chan; Value.Int credit ] in
  match seq with
  | None -> Value.List base
  | Some s -> Value.List (base @ [ Value.Int s ])

let parse_transfer_request_seq v =
  match v with
  | Value.List [ chan; Value.Int credit ] ->
      if credit <= 0 then raise (Value.Protocol_error "Transfer: credit must be positive");
      (Channel.of_value chan, credit, None)
  | Value.List [ chan; Value.Int credit; Value.Int seq ] ->
      if credit <= 0 then raise (Value.Protocol_error "Transfer: credit must be positive");
      if seq < 0 then raise (Value.Protocol_error "Transfer: seq must be non-negative");
      (Channel.of_value chan, credit, Some seq)
  | v -> raise (Value.Protocol_error ("malformed Transfer request: " ^ Value.to_string v))

let parse_transfer_request v =
  let chan, credit, _ = parse_transfer_request_seq v in
  (chan, credit)

type transfer_reply = { eos : bool; items : Value.t list }

let transfer_reply ?base { eos; items } =
  let fields = [ Value.Bool eos; Value.List items ] in
  match base with
  | None -> Value.List fields
  | Some b -> Value.List (fields @ [ Value.Int b ])

let parse_transfer_reply_base v =
  match v with
  | Value.List [ Value.Bool eos; Value.List items ] -> ({ eos; items }, None)
  | Value.List [ Value.Bool eos; Value.List items; Value.Int base ] ->
      ({ eos; items }, Some base)
  | v -> raise (Value.Protocol_error ("malformed Transfer reply: " ^ Value.to_string v))

let parse_transfer_reply v = fst (parse_transfer_reply_base v)

let deposit_request ?seq chan ~eos items =
  let base = [ Channel.to_value chan; Value.Bool eos; Value.List items ] in
  match seq with
  | None -> Value.List base
  | Some s -> Value.List (base @ [ Value.Int s ])

let parse_deposit_request_seq v =
  match v with
  | Value.List [ chan; Value.Bool eos; Value.List items ] ->
      (Channel.of_value chan, eos, items, None)
  | Value.List [ chan; Value.Bool eos; Value.List items; Value.Int seq ] ->
      if seq < 0 then raise (Value.Protocol_error "Deposit: seq must be non-negative");
      (Channel.of_value chan, eos, items, Some seq)
  | v -> raise (Value.Protocol_error ("malformed Deposit request: " ^ Value.to_string v))

let parse_deposit_request v =
  let chan, eos, items, _ = parse_deposit_request_seq v in
  (chan, eos, items)

let deposit_ack ~next_seq = Value.Int next_seq

let parse_deposit_ack v =
  match v with
  | Value.Int next_seq -> next_seq
  | v -> raise (Value.Protocol_error ("malformed Deposit ack: " ^ Value.to_string v))
