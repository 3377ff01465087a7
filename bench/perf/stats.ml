(* Order statistics for the benchmark's reports, beyond the median and
   mean of [Rats_util.Stats].

   Percentiles use the nearest-rank definition on integer per-mille levels,
   so which sample is reported never depends on float rounding. A
   percentile is only reported when at least [min_beyond] samples lie above
   it; below that a single outlier decides the value. Quartiles follow
   Python's [statistics.quantiles(xs, n=4)] (the "exclusive" method), so
   the spreads printed here match a spreadsheet or a Python check of the
   same numbers. *)

let min_beyond = 10

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

(* 1-based nearest rank of the [permille] level among [n] samples. *)
let rank ~permille n = max 1 ((permille * n + 999) / 1000)

let beyond ~permille n = n - rank ~permille n

let reportable ~permille n = n > 0 && beyond ~permille n >= min_beyond

(* [Some v] when the level has [min_beyond] samples above it. *)
let percentile ~permille xs =
  let n = Array.length xs in
  if reportable ~permille n then Some (sorted xs).(rank ~permille n - 1)
  else None

(* (q1, q2, q3), as statistics.quantiles(xs, n=4, method='exclusive'). *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld = 0 then (nan, nan, nan)
  else if ld = 1 then (a.(0), a.(0), a.(0))
  else
    let m = ld + 1 in
    let q i =
      let j = min (ld - 1) (max 1 (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.
    in
    (q 1, q 2, q 3)

(* Interquartile distance as a share of the median. *)
let rel_spread xs =
  let q1, q2, q3 = quartiles xs in
  if q2 = 0. then 0. else (q3 -. q1) /. Float.abs q2
