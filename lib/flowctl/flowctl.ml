type batching = Fixed of int | Adaptive of Aimd.params | Chunked of int
type t = { batching : batching; credit : Credit.limit }

let legacy = { batching = Fixed 1; credit = Window 1 }

let fixed ?(credit = Credit.Window 1) n =
  if n < 1 then invalid_arg "Flowctl.fixed: batch must be at least 1";
  ignore (Credit.cap credit);
  { batching = Fixed n; credit }

let adaptive ?(credit = Credit.Window 1) ?(params = Aimd.default_params) () =
  (* A batch is a request size: the generalized controller's floor may
     be 0 (replica sizing), but a Transfer for 0 items is meaningless. *)
  if params.Aimd.min_batch < 1 then
    invalid_arg "Flowctl.adaptive: min_batch must be at least 1";
  ignore (Credit.cap credit);
  { batching = Adaptive params; credit }

let default_chunk_bytes = 64 * 1024

let chunked ?(credit = Credit.Window 1) ?(chunk_bytes = default_chunk_bytes) () =
  if chunk_bytes < 1 then invalid_arg "Flowctl.chunked: chunk_bytes must be at least 1";
  ignore (Credit.cap credit);
  { batching = Chunked chunk_bytes; credit }

(* Under the chunked discipline one exchange carries one chunk value,
   so as far as item counting goes the batch is 1; the payload scaling
   lives in [chunk_bytes]. *)
let initial_batch t =
  match t.batching with Fixed n -> n | Adaptive p -> p.Aimd.min_batch | Chunked _ -> 1

let max_batch t =
  match t.batching with Fixed n -> n | Adaptive p -> p.Aimd.max_batch | Chunked _ -> 1

let controller t =
  match t.batching with
  | Fixed _ | Chunked _ -> None
  | Adaptive p -> Some (Aimd.create p)

let credit t = Credit.create t.credit

let is_legacy t =
  match (t.batching, t.credit) with Fixed 1, Window 1 -> true | _ -> false

let is_chunked t = match t.batching with Chunked _ -> true | _ -> false

let chunk_bytes t = match t.batching with Chunked n -> Some n | _ -> None
