type limit = Window of int | Unlimited

let unlimited_depth = 64

let cap = function
  | Window n ->
      if n < 1 then invalid_arg "Credit.cap: window must be at least 1";
      n
  | Unlimited -> unlimited_depth

type t = {
  capacity : int;
  mutable in_flight : int;
  mutable revoked : bool;
}

let create limit = { capacity = cap limit; in_flight = 0; revoked = false }
let available t = if t.revoked then 0 else t.capacity - t.in_flight
let in_flight t = t.in_flight
let revoked t = t.revoked

let take t =
  if t.revoked || t.in_flight >= t.capacity then false
  else begin
    t.in_flight <- t.in_flight + 1;
    true
  end

let give t =
  if t.revoked then ()
  else begin
    if t.in_flight <= 0 then invalid_arg "Credit.give: no exchange in flight";
    t.in_flight <- t.in_flight - 1
  end

let revoke t =
  if t.revoked then 0
  else begin
    t.revoked <- true;
    let reclaimed = t.in_flight in
    t.in_flight <- 0;
    reclaimed
  end
