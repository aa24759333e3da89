type params = {
  min_batch : int;
  max_batch : int;
  increase : int;
  decrease : float;
  low_watermark : float;
  high_watermark : float;
}

let default_params =
  {
    min_batch = 1;
    max_batch = 64;
    increase = 8;
    decrease = 0.5;
    low_watermark = 0.25;
    high_watermark = 0.75;
  }

let params ?(min_batch = default_params.min_batch) ?(max_batch = default_params.max_batch)
    ?(increase = default_params.increase) ?(decrease = default_params.decrease)
    ?(low_watermark = default_params.low_watermark)
    ?(high_watermark = default_params.high_watermark) () =
  if min_batch < 0 then invalid_arg "Aimd.params: min_batch must be non-negative";
  if max_batch < min_batch then invalid_arg "Aimd.params: max_batch must be at least min_batch";
  if increase < 1 then invalid_arg "Aimd.params: increase must be at least 1";
  if not (decrease > 0.0 && decrease < 1.0) then
    invalid_arg "Aimd.params: decrease must be in (0, 1)";
  if low_watermark < 0.0 || low_watermark > 1.0 || high_watermark < 0.0 || high_watermark > 1.0
  then invalid_arg "Aimd.params: watermarks must be in [0, 1]";
  if high_watermark <= low_watermark then
    invalid_arg "Aimd.params: high_watermark must exceed low_watermark";
  { min_batch; max_batch; increase; decrease; low_watermark; high_watermark }

type t = {
  p : params;
  mutable batch : int;
  mutable widens : int;
  mutable shrinks : int;
}

let clamp p n = max p.min_batch (min p.max_batch n)

let create ?initial p =
  let initial = match initial with None -> p.min_batch | Some i -> clamp p i in
  { p; batch = initial; widens = 0; shrinks = 0 }

let current t = t.batch

let on_progress t =
  let next = clamp t.p (t.batch + t.p.increase) in
  if next > t.batch then begin
    t.batch <- next;
    t.widens <- t.widens + 1
  end

let on_stall t =
  let next = clamp t.p (int_of_float (float_of_int t.batch *. t.p.decrease)) in
  if next < t.batch then begin
    t.batch <- next;
    t.shrinks <- t.shrinks + 1
  end

let observe t ~occupancy =
  let occ = Float.max 0.0 (Float.min 1.0 occupancy) in
  if occ >= t.p.high_watermark then on_stall t
  else if occ <= t.p.low_watermark then on_progress t

let widens t = t.widens
let shrinks t = t.shrinks
let params_of t = t.p
