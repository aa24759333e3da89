(* Observability: causal spans, log-bucketed histograms, and per-stage
   flow meters for the Eden simulator.

   This library deliberately depends only on [Eden_util] so that every
   other layer (net, kernel, transput, resil, shell, bench) can feed
   it without dependency cycles.  Identifiers crossing into this
   module are plain ints and strings; the kernel owns the mapping from
   span ids to invocations and from fiber ids to Ejects. *)

module Cqueue = Eden_util.Cqueue
module Slab = Eden_util.Slab

(* ------------------------------------------------------------------ *)
(* Log-bucketed histograms                                            *)
(* ------------------------------------------------------------------ *)

module Histogram = struct
  (* An all-float record is stored flat, so [add] updates these three
     in place; as fields of [t] each store would box a fresh float. *)
  type moments = { mutable sum : float; mutable minv : float; mutable maxv : float }

  type t = {
    lo : float; (* upper bound of the underflow bucket *)
    growth : float; (* geometric bucket growth factor *)
    log_growth : float;
    mutable counts : int array;
    mutable n : int;
    m : moments;
  }

  let create ?(lo = 1e-3) ?(growth = 2.0) () =
    if lo <= 0.0 then invalid_arg "Obs.Histogram.create: lo must be positive";
    if growth <= 1.0 then invalid_arg "Obs.Histogram.create: growth must be > 1";
    {
      lo;
      growth;
      log_growth = Float.log growth;
      counts = Array.make 8 0;
      n = 0;
      m = { sum = 0.0; minv = infinity; maxv = neg_infinity };
    }

  (* Bucket 0 holds [0, lo); bucket i >= 1 holds [lo*g^(i-1), lo*g^i). *)
  let bucket_of t v =
    if Float.is_nan v || v < t.lo then 0
    else 1 + int_of_float (Float.log (v /. t.lo) /. t.log_growth)

  let bucket_upper t i = if i = 0 then t.lo else t.lo *. (t.growth ** float_of_int i)

  let ensure t i =
    let len = Array.length t.counts in
    if i >= len then begin
      let len' = max (i + 1) (2 * len) in
      let counts' = Array.make len' 0 in
      Array.blit t.counts 0 counts' 0 len;
      t.counts <- counts'
    end

  let add t v =
    let i = max 0 (bucket_of t v) in
    ensure t i;
    t.counts.(i) <- t.counts.(i) + 1;
    t.n <- t.n + 1;
    let m = t.m in
    m.sum <- m.sum +. v;
    if v < m.minv then m.minv <- v;
    if v > m.maxv then m.maxv <- v

  (* Fold [src] into [into].  Bucket-exact when the two histograms share
     bucket geometry; geometry mismatch is a caller error.  Used to
     aggregate per-domain histograms after a parallel run joins. *)
  let merge ~into src =
    if into.lo <> src.lo || into.growth <> src.growth then
      invalid_arg "Obs.Histogram.merge: bucket geometry differs";
    ensure into (Array.length src.counts - 1);
    Array.iteri (fun i c -> into.counts.(i) <- into.counts.(i) + c) src.counts;
    into.n <- into.n + src.n;
    into.m.sum <- into.m.sum +. src.m.sum;
    if src.m.minv < into.m.minv then into.m.minv <- src.m.minv;
    if src.m.maxv > into.m.maxv then into.m.maxv <- src.m.maxv

  let count t = t.n
  let mean t = if t.n = 0 then 0.0 else t.m.sum /. float_of_int t.n
  let min_value t = if t.n = 0 then 0.0 else t.m.minv
  let max_value t = if t.n = 0 then 0.0 else t.m.maxv

  (* Upper bound of the bucket containing the rank-th sample, clamped
     to the exact observed extrema so p100 is exact and small
     histograms do not over-report. *)
  let percentile t p =
    if t.n = 0 then 0.0
    else begin
      let p = Float.max 0.0 (Float.min 1.0 p) in
      let rank = max 1 (int_of_float (Float.ceil (p *. float_of_int t.n))) in
      let rec walk i cum =
        if i >= Array.length t.counts then t.m.maxv
        else begin
          let cum = cum + t.counts.(i) in
          if cum >= rank then bucket_upper t i else walk (i + 1) cum
        end
      in
      Float.max t.m.minv (Float.min t.m.maxv (walk 0 0))
    end

  let pp ppf t =
    if t.n = 0 then Fmt.pf ppf "(empty)"
    else
      Fmt.pf ppf "n=%d mean=%.4g p50=%.4g p90=%.4g p99=%.4g max=%.4g" t.n (mean t)
        (percentile t 0.5) (percentile t 0.9) (percentile t 0.99) t.m.maxv
end

(* ------------------------------------------------------------------ *)
(* Causal spans                                                       *)
(* ------------------------------------------------------------------ *)

module Span = struct
  type t = {
    id : int;
    parent : int option;
    name : string;
    cat : string;
    start : float;
    mutable stop : float; (* nan while the span is still open *)
    mutable ok : bool;
    attrs : (string * string) list;
  }

  let is_open s = Float.is_nan s.stop
  let duration s = if is_open s then 0.0 else s.stop -. s.start
end

(* ------------------------------------------------------------------ *)
(* Per-stage flow meters                                              *)
(* ------------------------------------------------------------------ *)

module Flow = struct
  type stage = {
    label : string;
    mutable items_in : int;
    mutable items_out : int;
    mutable bytes_in : int; (* marshalled payload bytes, Value.size law *)
    mutable bytes_out : int;
    mutable batches : int;
    mutable max_occupancy : int;
    mutable stall_in : float; (* virtual time spent waiting to read *)
    mutable stall_out : float; (* virtual time spent waiting to write *)
  }

  let make label =
    {
      label;
      items_in = 0;
      items_out = 0;
      bytes_in = 0;
      bytes_out = 0;
      batches = 0;
      max_occupancy = 0;
      stall_in = 0.0;
      stall_out = 0.0;
    }

  let occupancy s = max 0 (s.items_in - s.items_out)

  let note_in s =
    s.items_in <- s.items_in + 1;
    let occ = occupancy s in
    if occ > s.max_occupancy then s.max_occupancy <- occ

  let note_out s = s.items_out <- s.items_out + 1

  let note_in_n s n =
    if n > 0 then begin
      s.items_in <- s.items_in + n;
      let occ = occupancy s in
      if occ > s.max_occupancy then s.max_occupancy <- occ
    end

  let note_out_n s n = if n > 0 then s.items_out <- s.items_out + n
  let note_bytes_in s n = if n > 0 then s.bytes_in <- s.bytes_in + n
  let note_bytes_out s n = if n > 0 then s.bytes_out <- s.bytes_out + n
  let note_batches s n = if n > s.batches then s.batches <- n
  let wait_in s d = if d > 0.0 then s.stall_in <- s.stall_in +. d
  let wait_out s d = if d > 0.0 then s.stall_out <- s.stall_out +. d

  let pp ppf s =
    Fmt.pf ppf
      "%s: in=%d out=%d bytes_in=%d bytes_out=%d batches=%d max_occ=%d stall_in=%.3f \
       stall_out=%.3f"
      s.label s.items_in s.items_out s.bytes_in s.bytes_out s.batches s.max_occupancy
      s.stall_in s.stall_out
end

(* ------------------------------------------------------------------ *)
(* Collector                                                          *)
(* ------------------------------------------------------------------ *)

(* The open-span table is a {!Slab}, and a span's {e id is its slab
   handle}: begin = alloc, end = free, lookup is two array reads.  A
   slot's generation only ever grows, so handles — and therefore span
   ids — are unique for the collector's lifetime even though slots are
   recycled; parent edges into long-closed spans stay unambiguous.
   [instant] draws its id from the same handle space (alloc + immediate
   free) so ids never collide across the two paths. *)
type t = {
  mutable spans_on : bool;
  live : Span.t Slab.t; (* open spans; handle = span id *)
  closed : Span.t Cqueue.t; (* completed spans, oldest first *)
  span_capacity : int; (* most spans [closed] keeps *)
  mutable dropped : int; (* completed spans evicted from [closed] *)
  hists : (string, Histogram.t) Hashtbl.t;
  (* Stage meters, flat, in registration order. *)
  mutable stage_arr : Flow.stage array;
  mutable stage_count : int;
}

let dummy_span =
  {
    Span.id = -1;
    parent = None;
    name = "";
    cat = "";
    start = 0.0;
    stop = 0.0;
    ok = true;
    attrs = [];
  }

let dummy_stage = Flow.make ""

let create ?(span_capacity = 8192) () =
  if span_capacity <= 0 then invalid_arg "Obs.create: span_capacity must be positive";
  {
    spans_on = false;
    live = Slab.create ~capacity:64 ~dummy:dummy_span ();
    closed = Cqueue.create ~capacity:span_capacity ();
    span_capacity;
    dropped = 0;
    hists = Hashtbl.create 16;
    stage_arr = [||];
    stage_count = 0;
  }

let enable_spans t = t.spans_on <- true
let disable_spans t = t.spans_on <- false
let spans_enabled t = t.spans_on

(* A full store evicts its oldest span to keep [s]. *)
let keep t s =
  if Cqueue.length t.closed = t.span_capacity then begin
    ignore (Cqueue.pop t.closed);
    t.dropped <- t.dropped + 1
  end;
  Cqueue.push t.closed s

let span_begin t ?parent ?(attrs = []) ~name ~cat ~at () =
  let id = Slab.alloc t.live dummy_span in
  let s =
    { Span.id; parent; name; cat; start = at; stop = Float.nan; ok = true; attrs }
  in
  ignore (Slab.set t.live id s);
  id

let span_end t id ~at ~ok =
  match Slab.free t.live id with
  | None -> ()
  | Some s ->
      s.Span.stop <- at;
      s.Span.ok <- ok;
      keep t s

let instant t ?(attrs = []) ~name ~cat ~at () =
  if t.spans_on then begin
    let id = Slab.alloc t.live dummy_span in
    ignore (Slab.free t.live id);
    keep t { Span.id; parent = None; name; cat; start = at; stop = at; ok = true; attrs }
  end

let spans t = List.init (Cqueue.length t.closed) (Cqueue.get t.closed)
let open_spans t = Slab.fold (fun _ s acc -> s :: acc) t.live []
let span_count t = Cqueue.length t.closed
let dropped_spans t = t.dropped

let clear_spans t =
  Cqueue.clear t.closed;
  (* Free every open span; a later [span_end] on one simply misses. *)
  let open_handles = Slab.fold (fun h _ acc -> h :: acc) t.live [] in
  List.iter (fun h -> ignore (Slab.free t.live h)) open_handles;
  t.dropped <- 0

let histogram ?lo t name =
  match Hashtbl.find_opt t.hists name with
  | Some h -> h
  | None ->
      let h = Histogram.create ?lo () in
      Hashtbl.replace t.hists name h;
      h

let histograms t =
  Hashtbl.fold (fun name h acc -> (name, h) :: acc) t.hists []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let register_stage t label =
  let s = Flow.make label in
  let cap = Array.length t.stage_arr in
  if t.stage_count = cap then begin
    let arr = Array.make (max 8 (2 * cap)) dummy_stage in
    Array.blit t.stage_arr 0 arr 0 cap;
    t.stage_arr <- arr
  end;
  t.stage_arr.(t.stage_count) <- s;
  t.stage_count <- t.stage_count + 1;
  s

let stages t = Array.to_list (Array.sub t.stage_arr 0 t.stage_count)

(* ------------------------------------------------------------------ *)
(* Export (JSONL + Chrome trace_event)                                *)
(* ------------------------------------------------------------------ *)

module Export = struct
  let json_escape s =
    let buf = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 ->
            Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.contents buf

  let str s = "\"" ^ json_escape s ^ "\""

  (* JSON floats must not be nan/inf; open spans export stop = -1. *)
  let num f = if Float.is_nan f || Float.is_integer f then Printf.sprintf "%.0f" f else Printf.sprintf "%.9g" f

  let span_fields (s : Span.t) =
    let base =
      [
        ("id", string_of_int s.Span.id);
        ("parent", (match s.Span.parent with Some p -> string_of_int p | None -> "null"));
        ("name", str s.Span.name);
        ("cat", str s.Span.cat);
        ("start", num s.Span.start);
        ("stop", (if Span.is_open s then "null" else num s.Span.stop));
        ("ok", string_of_bool s.Span.ok);
      ]
    in
    let attrs = List.map (fun (k, v) -> ("attr." ^ k, str v)) s.Span.attrs in
    base @ attrs

  let obj fields =
    "{" ^ String.concat "," (List.map (fun (k, v) -> str k ^ ":" ^ v) fields) ^ "}"

  let span_jsonl s = obj (span_fields s)

  let spans_jsonl t =
    let buf = Buffer.create 4096 in
    List.iter
      (fun s ->
        Buffer.add_string buf (span_jsonl s);
        Buffer.add_char buf '\n')
      (spans t);
    Buffer.contents buf

  (* Chrome trace_event JSON: complete events ("ph":"X") with
     microsecond timestamps scaled from virtual seconds.  Spans are
     grouped into one "thread" per destination Eject (the [dst]
     attribute) so chrome://tracing / Perfetto lays the invocation
     tree out per target. *)
  let chrome_trace t =
    let tids = Hashtbl.create 16 in
    let next_tid = ref 1 in
    let tid_for s =
      match List.assoc_opt "dst" s.Span.attrs with
      | None -> 0
      | Some dst -> (
          match Hashtbl.find_opt tids dst with
          | Some i -> i
          | None ->
              let i = !next_tid in
              incr next_tid;
              Hashtbl.replace tids dst i;
              i)
    in
    let usec v = Printf.sprintf "%.3f" (v *. 1e6) in
    let event s =
      let args =
        obj
          (("id", string_of_int s.Span.id)
           :: ("parent",
               match s.Span.parent with Some p -> string_of_int p | None -> "null")
           :: ("ok", string_of_bool s.Span.ok)
           :: List.map (fun (k, v) -> (k, str v)) s.Span.attrs)
      in
      let common =
        [
          ("name", str s.Span.name);
          ("cat", str s.Span.cat);
          ("pid", "0");
          ("tid", string_of_int (tid_for s));
          ("ts", usec s.Span.start);
        ]
      in
      if Float.abs (Span.duration s) < 1e-12 then
        obj (common @ [ ("ph", str "i"); ("s", str "t"); ("args", args) ])
      else obj (common @ [ ("ph", str "X"); ("dur", usec (Span.duration s)); ("args", args) ])
    in
    let events = List.map event (spans t) in
    "{\"traceEvents\":[" ^ String.concat "," events ^ "],\"displayTimeUnit\":\"ms\"}"

  let to_file ~path contents =
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () -> output_string oc contents)
end
