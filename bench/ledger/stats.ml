let sorted samples =
  let a = Array.copy samples in
  Array.sort Float.compare a;
  a

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Stats.percentile: no samples";
  if q < 0. || q > 1. then invalid_arg "Stats.percentile: q outside [0, 1]";
  let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
  sorted.(max 0 (min (n - 1) (rank - 1)))

let median sorted = percentile sorted 0.5

let beyond n q = n - int_of_float (Float.ceil (q *. float_of_int n))

let tail ~q sorted =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Stats.tail: no samples";
  if beyond n q >= 10 then (q, percentile sorted q)
  else if n <= 10 then (1.0, sorted.(n - 1))
  else
    (* the sample with exactly ten samples above it *)
    (float_of_int (n - 10) /. float_of_int n, sorted.(n - 11))

let py_median sorted =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Stats.py_median: no samples";
  if n mod 2 = 1 then sorted.(n / 2)
  else (sorted.((n / 2) - 1) +. sorted.(n / 2)) /. 2.

let quartiles sorted =
  let n = Array.length sorted in
  if n < 2 then invalid_arg "Stats.quartiles: need two samples";
  let cut i =
    let j = max 1 (min (n - 1) (i * (n + 1) / 4)) in
    let delta = (i * (n + 1)) - (j * 4) in
    ((sorted.(j - 1) *. float_of_int (4 - delta))
    +. (sorted.(j) *. float_of_int delta))
    /. 4.
  in
  (cut 1, cut 3)

let spread sorted =
  let q1, q3 = quartiles sorted in
  let m = py_median sorted in
  if m = 0. then 0. else (q3 -. q1) /. Float.abs m

let bisect ~lo ~hi ~steps pass =
  let rec go lo hi k probes =
    if k = 0 then (lo, List.rev probes)
    else
      let mid = (lo +. hi) /. 2. in
      let ok = pass mid in
      if ok then go mid hi (k - 1) ((mid, ok) :: probes)
      else go lo mid (k - 1) ((mid, ok) :: probes)
  in
  go lo hi steps []

let residual ~whole parts = whole -. List.fold_left ( +. ) 0. parts
