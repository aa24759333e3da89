module Value = Eden_kernel.Value

type entry =
  | Install of { chan : int; cseq : int; oseq : int; state : Value.t }
  | Item of { chan : int; cseq : int; payload : Value.t }

let encode_entry = function
  | Install { chan; cseq; oseq; state } ->
      Value.List [ Value.Str "install"; Value.Int chan; Value.Int cseq; Value.Int oseq; state ]
  | Item { chan; cseq; payload } ->
      Value.List [ Value.Str "item"; Value.Int chan; Value.Int cseq; payload ]

let decode_entry = function
  | Value.List [ Value.Str "install"; Value.Int chan; Value.Int cseq; Value.Int oseq; state ]
    ->
      Install { chan; cseq; oseq; state }
  | Value.List [ Value.Str "item"; Value.Int chan; Value.Int cseq; payload ] ->
      Item { chan; cseq; payload }
  | v -> raise (Value.Protocol_error ("elastic link entry: " ^ Value.to_string v))

let encode_out ~chan ~oseq payload = Value.List [ Value.Int chan; Value.Int oseq; payload ]

let decode_out = function
  | Value.List [ Value.Int chan; Value.Int oseq; payload ] -> (chan, oseq, payload)
  | v -> raise (Value.Protocol_error ("elastic output: " ^ Value.to_string v))

let encode_chan_state ~chan ~cseq ~oseq state =
  Value.List [ Value.Int chan; Value.Int cseq; Value.Int oseq; state ]

let decode_chan_state = function
  | Value.List [ Value.Int chan; Value.Int cseq; Value.Int oseq; state ] ->
      (chan, cseq, oseq, state)
  | v -> raise (Value.Protocol_error ("elastic channel state: " ^ Value.to_string v))

let encode_ckpt ~in_seq ~out_pos states =
  Value.List [ Value.Int in_seq; Value.Int out_pos; Value.List states ]

let decode_ckpt = function
  | Value.List [ Value.Int in_seq; Value.Int out_pos; Value.List states ] ->
      (in_seq, out_pos, List.map decode_chan_state states)
  | v -> raise (Value.Protocol_error ("elastic checkpoint: " ^ Value.to_string v))

let sync_op = "Sync"
let finish_op = "Finish"
