module Slab = Eden_util.Slab

type 'a t = {
  slab : 'a Slab.t;
  uid_of : 'a -> Uid.t;
  mutable index : int array; (* serial -> slab handle, -1 = absent *)
}

let create ?(capacity = 64) ~dummy ~uid_of () =
  {
    slab = Slab.create ~capacity ~dummy ();
    uid_of;
    index = Array.make (max 1 capacity) (-1);
  }

let ensure_index t serial =
  let n = Array.length t.index in
  if serial >= n then begin
    let n' = ref (2 * n) in
    while serial >= !n' do
      n' := 2 * !n'
    done;
    let a = Array.make !n' (-1) in
    Array.blit t.index 0 a 0 n;
    t.index <- a
  end

let add t v =
  let serial = Uid.serial (t.uid_of v) in
  if serial < 0 then invalid_arg "Estore.add: negative serial";
  ensure_index t serial;
  if t.index.(serial) >= 0 then invalid_arg "Estore.add: duplicate serial";
  t.index.(serial) <- Slab.alloc t.slab v

(* Resolve a UID to its slab handle, verifying the full UID: the serial
   alone is guessable/colliding, the tag is not. *)
let handle_of t uid =
  let serial = Uid.serial uid in
  if serial < 0 || serial >= Array.length t.index then -1
  else
    let h = t.index.(serial) in
    if h < 0 then -1
    else
      match Slab.get t.slab h with
      | Some v when Uid.equal (t.uid_of v) uid -> h
      | Some _ | None -> -1

let find t uid =
  let h = handle_of t uid in
  if h < 0 then None else Slab.get t.slab h


let remove t uid =
  let h = handle_of t uid in
  if h < 0 then false
  else begin
    t.index.(Uid.serial uid) <- -1;
    ignore (Slab.free t.slab h);
    true
  end

