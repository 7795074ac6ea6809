(* Order statistics for the benchmark suite: the summaries it reports
   and the rules it judges them by. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* The middle value, averaging the two central samples of an even-sized
   list; [nan] when empty. *)
let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then Float.nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest-rank percentile: the smallest sample with at least
   [ceil (p * n)] samples at or below it. *)
let percentile p xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then Float.nan
  else
    let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

(* How many samples lie beyond the nearest-rank [p] percentile of [n]. *)
let beyond ~n p = n - int_of_float (Float.ceil (p *. float_of_int n))

(* A tail percentile is reported only when at least ten samples lie
   beyond it: the highest of these with that support, if any. *)
let tail_candidates = [ 0.999; 0.99; 0.9; 0.5 ]

let tail_percentile n =
  List.find_opt (fun p -> beyond ~n p >= 10) tail_candidates

(* First and third quartiles by the "exclusive" method of Python's
   [statistics.quantiles(values, n=4)], so spreads computed here match
   that reference exactly. A single sample is its own quartiles. *)
let quartiles xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then (Float.nan, Float.nan)
  else if n = 1 then (a.(0), a.(0))
  else
    let q i =
      let m = n + 1 in
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.
    in
    (q 1, q 3)

(* Interquartile range as a share of the median: the run-to-run spread
   the regression bounds are derived from. *)
let iqr_frac xs =
  let q1, q3 = quartiles xs in
  let m = median xs in
  if m = 0. then if q3 -. q1 = 0. then 0. else Float.infinity
  else (q3 -. q1) /. Float.abs m

type better = Lower | Higher

let better_of_string = function
  | "lower" -> Some Lower
  | "higher" -> Some Higher
  | _ -> None

(* Whether [value] is worse than [base] by more than the share [bound]
   of [base], in the metric's direction. *)
let regressed ~better ~bound ~base value =
  match better with
  | Lower -> value > base +. (bound *. Float.abs base)
  | Higher -> value < base -. (bound *. Float.abs base)
