(* Order statistics over measured samples. *)

let sorted a =
  let s = Array.copy a in
  Array.sort Float.compare s;
  s

(* 1-based nearest rank of percentile [p] among [n] samples.  The
   epsilon keeps a product such as 99.9% of 10000, which floating point
   puts a hair above 9990, from rounding up to the next rank. *)
let rank n p = max 1 (min n (int_of_float (Float.ceil ((p /. 100. *. float_of_int n) -. 1e-9))))

(* Nearest-rank percentile: the smallest sample with at least [p]% of
   all samples at or below it.  Always an observed value. *)
let percentile a p =
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.percentile: no samples";
  (sorted a).(rank n p - 1)

(* The percentiles a timing may be reported at, highest first.  One is
   supported by [n] samples when at least ten lie beyond its rank. *)
let candidates = [ 99.9; 99.0; 95.0; 90.0; 50.0 ]
let supported n p = n - rank n p >= 10
let highest_supported n = List.find_opt (supported n) candidates

let median a =
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.median: no samples";
  let s = sorted a in
  if n mod 2 = 1 then s.(n / 2) else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.

(* Quartiles by the same rule as Python's [statistics.quantiles(v, n=4)]
   (the default "exclusive" method), so spreads computed here match
   those computed by scripts reading the same numbers. *)
let quartiles a =
  let n = Array.length a in
  if n < 2 then invalid_arg "Stats.quartiles: need at least two samples";
  let s = sorted a in
  let m = n + 1 in
  let q i =
    let j = max 1 (min (n - 1) (i * m / 4)) in
    let delta = (i * m) - (j * 4) in
    ((s.(j - 1) *. float_of_int (4 - delta)) +. (s.(j) *. float_of_int delta)) /. 4.
  in
  (q 1, q 2, q 3)

(* Interquartile distance as a share of the median; 0 for a single
   sample or a zero median. *)
let spread a =
  if Array.length a < 2 then 0.
  else
    let q1, _, q3 = quartiles a in
    let m = median a in
    if m = 0. then 0. else Float.abs ((q3 -. q1) /. m)
