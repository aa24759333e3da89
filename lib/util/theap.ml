type handle = int

let slot_bits = Slab.slot_bits
let slot_mask = (1 lsl slot_bits) - 1

(* Parallel slot arrays (keys/seqs/values/pos) plus a heap array of
   slot indices.  [pos.(slot)] is the slot's current index in [heap],
   maintained through every sift, which is what makes removal by handle
   O(log n).  Generations live in [gens] exactly as in {!Slab}: odd
   while occupied, bumped on both alloc and release. *)
type 'a t = {
  dummy : 'a;
  mutable keys : float array; (* per slot: deadline *)
  mutable seqs : int array; (* per slot: insertion stamp, ties tiebreak *)
  mutable values : 'a array;
  mutable pos : int array; (* per slot: index into [heap] *)
  mutable gens : int array;
  mutable free_stack : int array;
  mutable free_top : int;
  mutable used : int;
  mutable heap : int array; (* heap of slots, ordered by (key, seq) *)
  mutable size : int;
  mutable next_seq : int;
}

let create ~dummy () =
  let capacity = 16 in
  {
    dummy;
    keys = Array.make capacity 0.0;
    seqs = Array.make capacity 0;
    values = Array.make capacity dummy;
    pos = Array.make capacity (-1);
    gens = Array.make capacity 0;
    free_stack = Array.make capacity 0;
    free_top = 0;
    used = 0;
    heap = Array.make capacity 0;
    size = 0;
    next_seq = 0;
  }

let size t = t.size
let is_empty t = t.size = 0

let less t a b =
  let c = Float.compare t.keys.(a) t.keys.(b) in
  if c <> 0 then c < 0 else t.seqs.(a) < t.seqs.(b)

let place t slot idx =
  t.heap.(idx) <- slot;
  t.pos.(slot) <- idx

let rec sift_up t idx =
  if idx > 0 then begin
    let parent = (idx - 1) / 2 in
    if less t t.heap.(idx) t.heap.(parent) then begin
      let a = t.heap.(idx) and b = t.heap.(parent) in
      place t a parent;
      place t b idx;
      sift_up t parent
    end
  end

let rec sift_down t idx =
  let l = (2 * idx) + 1 in
  if l < t.size then begin
    let r = l + 1 in
    let m = if r < t.size && less t t.heap.(r) t.heap.(l) then r else l in
    if less t t.heap.(m) t.heap.(idx) then begin
      let a = t.heap.(idx) and b = t.heap.(m) in
      place t a m;
      place t b idx;
      sift_down t m
    end
  end

let grow t =
  let cap = Array.length t.keys in
  let cap' = 2 * cap in
  let extend a fill =
    let a' = Array.make cap' fill in
    Array.blit a 0 a' 0 cap;
    a'
  in
  t.keys <- extend t.keys 0.0;
  t.seqs <- extend t.seqs 0;
  t.values <- extend t.values t.dummy;
  t.pos <- extend t.pos (-1);
  t.gens <- extend t.gens 0;
  t.free_stack <- extend t.free_stack 0;
  t.heap <- extend t.heap 0

let insert t key v =
  let slot =
    if t.free_top > 0 then begin
      t.free_top <- t.free_top - 1;
      t.free_stack.(t.free_top)
    end
    else begin
      if t.used >= Array.length t.keys then grow t;
      let s = t.used in
      t.used <- t.used + 1;
      s
    end
  in
  let gen = t.gens.(slot) + 1 in
  t.gens.(slot) <- gen;
  t.keys.(slot) <- key;
  t.seqs.(slot) <- t.next_seq;
  t.next_seq <- t.next_seq + 1;
  t.values.(slot) <- v;
  place t slot t.size;
  t.size <- t.size + 1;
  sift_up t (t.size - 1);
  slot lor (gen lsl slot_bits)

let is_live t h =
  let slot = h land slot_mask in
  h >= 0 && slot < t.used && t.gens.(slot) = h lsr slot_bits

(* Detach the entry at heap index [idx] and return its value: swap the
   last entry in, then restore heap order from there.  The vacated slot
   is recycled. *)
let delete_at t idx =
  let slot = t.heap.(idx) in
  let v = t.values.(slot) in
  t.values.(slot) <- t.dummy;
  t.pos.(slot) <- -1;
  t.gens.(slot) <- t.gens.(slot) + 1;
  t.free_stack.(t.free_top) <- slot;
  t.free_top <- t.free_top + 1;
  t.size <- t.size - 1;
  if idx < t.size then begin
    place t t.heap.(t.size) idx;
    sift_up t idx;
    sift_down t idx
  end;
  v

let remove t h =
  if not (is_live t h) then false
  else begin
    ignore (delete_at t (t.pos.(h land slot_mask)));
    true
  end

let delete_min t =
  if t.size = 0 then None
  else
    let key = t.keys.(t.heap.(0)) in
    Some (key, delete_at t 0)

let min_key t = if t.size = 0 then infinity else t.keys.(t.heap.(0))

let pop_min t =
  if t.size = 0 then invalid_arg "Theap.pop_min: empty";
  delete_at t 0

let min_tie_count t =
  if t.size = 0 then 0
  else begin
    (* Entries tied with the minimum form a connected region reachable
       from the root through tied parents; walk just that region. *)
    let k = t.keys.(t.heap.(0)) in
    let rec count idx =
      if idx >= t.size || not (Float.equal t.keys.(t.heap.(idx)) k) then 0
      else 1 + count ((2 * idx) + 1) + count ((2 * idx) + 2)
    in
    count 0
  end

let delete_nth_min t i =
  if i < 0 then invalid_arg "Theap.delete_nth_min: negative index";
  if t.size = 0 then None
  else begin
    let k = t.keys.(t.heap.(0)) in
    (* Collect the tied entries' heap indices, order them by insertion
       stamp, and physically delete the i-th.  [delete_at] preserves
       the (key, seq) order of everything left in the heap, so the
       remaining ties keep their relative insertion order. *)
    let ties = ref [] in
    let rec collect idx =
      if idx < t.size && Float.equal t.keys.(t.heap.(idx)) k then begin
        ties := idx :: !ties;
        collect ((2 * idx) + 1);
        collect ((2 * idx) + 2)
      end
    in
    collect 0;
    let by_seq =
      List.sort
        (fun a b -> Int.compare t.seqs.(t.heap.(a)) t.seqs.(t.heap.(b)))
        !ties
    in
    match List.nth_opt by_seq i with
    | None -> invalid_arg "Theap.delete_nth_min: index beyond tie count"
    | Some idx -> Some (k, delete_at t idx)
  end
