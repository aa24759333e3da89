let slot_bits = 26
let slot_mask = (1 lsl slot_bits) - 1
let max_slots = 1 lsl slot_bits

type handle = int

(* A slot's generation is even while free and odd while occupied; both
   alloc and free bump it.  A handle carries the (odd) generation the
   slot had when allocated, so liveness and staleness are one
   comparison: the handle is live iff [gens.(slot)] still equals its
   generation. *)
type 'a t = {
  dummy : 'a;
  mutable data : 'a array;
  mutable gens : int array;
  mutable free_stack : int array; (* LIFO: reuse the hottest slot first *)
  mutable free_top : int; (* number of valid entries in [free_stack] *)
  mutable used : int; (* slots ever touched: [0, used) are initialised *)
  mutable live : int;
}

let create ?(capacity = 16) ~dummy () =
  let capacity = max 1 (min capacity max_slots) in
  {
    dummy;
    data = Array.make capacity dummy;
    gens = Array.make capacity 0;
    free_stack = Array.make capacity 0;
    free_top = 0;
    used = 0;
    live = 0;
  }

let live t = t.live
let capacity t = Array.length t.data
let slot_of h = h land slot_mask

let grow t =
  let cap = Array.length t.data in
  if cap >= max_slots then failwith "Slab: slot space exhausted";
  let cap' = min max_slots (2 * cap) in
  let data' = Array.make cap' t.dummy in
  Array.blit t.data 0 data' 0 cap;
  t.data <- data';
  let gens' = Array.make cap' 0 in
  Array.blit t.gens 0 gens' 0 cap;
  t.gens <- gens';
  let free' = Array.make cap' 0 in
  Array.blit t.free_stack 0 free' 0 t.free_top;
  t.free_stack <- free'

let alloc t v =
  let slot =
    if t.free_top > 0 then begin
      t.free_top <- t.free_top - 1;
      t.free_stack.(t.free_top)
    end
    else begin
      if t.used >= Array.length t.data then grow t;
      let s = t.used in
      t.used <- t.used + 1;
      s
    end
  in
  let gen = t.gens.(slot) + 1 in
  t.gens.(slot) <- gen;
  t.data.(slot) <- v;
  t.live <- t.live + 1;
  slot lor (gen lsl slot_bits)

let is_live t h =
  let slot = h land slot_mask in
  h >= 0 && slot < t.used && t.gens.(slot) = h lsr slot_bits

let get t h = if is_live t h then Some t.data.(h land slot_mask) else None
let mem = is_live

let set t h v =
  if is_live t h then begin
    t.data.(h land slot_mask) <- v;
    true
  end
  else false

let free t h =
  if not (is_live t h) then None
  else begin
    let slot = h land slot_mask in
    let v = t.data.(slot) in
    t.data.(slot) <- t.dummy;
    t.gens.(slot) <- t.gens.(slot) + 1;
    t.free_stack.(t.free_top) <- slot;
    t.free_top <- t.free_top + 1;
    t.live <- t.live - 1;
    Some v
  end

let iter f t =
  for slot = 0 to t.used - 1 do
    let gen = t.gens.(slot) in
    if gen land 1 = 1 then f (slot lor (gen lsl slot_bits)) t.data.(slot)
  done

let fold f t init =
  let acc = ref init in
  iter (fun h v -> acc := f h v !acc) t;
  !acc
