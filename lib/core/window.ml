module Cqueue = Eden_util.Cqueue

type 'a t = { q : 'a Cqueue.t; mutable base : int }

(* A window usually holds a batch or two, and a dormant-then-woken
   producer keeps its empty one for life: start the queue small. *)
let create ?(base = 0) () = { q = Cqueue.create ~capacity:2 (); base }

let base w = w.base
let length w = Cqueue.length w.q
let next w = w.base + Cqueue.length w.q
let is_empty w = Cqueue.is_empty w.q
let push w x = Cqueue.push w.q x

let trim w a =
  let n = min a (next w) - w.base in
  if n > 0 then begin
    for _ = 1 to n do
      ignore (Cqueue.pop w.q)
    done;
    w.base <- w.base + n
  end

let sub w pos n =
  let lo = max pos w.base and hi = min (pos + n) (next w) in
  let rec go i acc = if i < lo then acc else go (i - 1) (Cqueue.get w.q (i - w.base) :: acc) in
  go (hi - 1) []

let take w n =
  let xs = sub w w.base n in
  trim w (w.base + n);
  xs

let to_list w = sub w w.base (length w)

let reset w ~base items =
  Cqueue.clear w.q;
  w.base <- base;
  List.iter (push w) items
