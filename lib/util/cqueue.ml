type 'a t = {
  mutable data : 'a option array; (* None marks an empty cell *)
  mutable head : int; (* index of the front element *)
  mutable len : int;
}

let create ?(capacity = 16) () =
  { data = Array.make (max 1 capacity) None; head = 0; len = 0 }

let length t = t.len
let is_empty t = t.len = 0

let grow t =
  let cap = Array.length t.data in
  let data' = Array.make (2 * cap) None in
  for i = 0 to t.len - 1 do
    data'.(i) <- t.data.((t.head + i) mod cap)
  done;
  t.data <- data';
  t.head <- 0

let push t x =
  if t.len = Array.length t.data then grow t;
  t.data.((t.head + t.len) mod Array.length t.data) <- Some x;
  t.len <- t.len + 1

let pop t =
  if t.len = 0 then None
  else begin
    let x = t.data.(t.head) in
    t.data.(t.head) <- None;
    t.head <- (t.head + 1) mod Array.length t.data;
    t.len <- t.len - 1;
    x
  end

let pop_exn t = match pop t with Some x -> x | None -> invalid_arg "Cqueue.pop_exn: empty"
let peek t = if t.len = 0 then None else t.data.(t.head)

let clear t =
  let cap = Array.length t.data in
  for i = 0 to t.len - 1 do
    t.data.((t.head + i) mod cap) <- None
  done;
  t.head <- 0;
  t.len <- 0

let iter f t =
  let cap = Array.length t.data in
  for i = 0 to t.len - 1 do
    match t.data.((t.head + i) mod cap) with Some x -> f x | None -> assert false
  done

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Cqueue.get: out of range";
  match t.data.((t.head + i) mod Array.length t.data) with Some x -> x | None -> assert false

(* Shift the elements in front of [i] back by one cell, so the hole
   left by the taken element closes toward the head and everything
   keeps its relative order. *)
let take_nth t i =
  if i < 0 || i >= t.len then invalid_arg "Cqueue.take_nth: out of range";
  let cap = Array.length t.data in
  let x = t.data.((t.head + i) mod cap) in
  for j = i downto 1 do
    t.data.((t.head + j) mod cap) <- t.data.((t.head + j - 1) mod cap)
  done;
  t.data.(t.head) <- None;
  t.head <- (t.head + 1) mod cap;
  t.len <- t.len - 1;
  match x with Some x -> x | None -> assert false
