let sorted xs = Array.of_list (List.sort Float.compare xs)

(* Linear interpolation between closest ranks, so the median of an even
   count is the mean of the two middle values. *)
let quantile q xs =
  match sorted xs with
  | [||] -> Float.nan
  | a ->
    let n = Array.length a in
    let rank = q *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = min (lo + 1) (n - 1) in
    a.(lo) +. ((rank -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = quantile 0.5 xs

(* Python's [statistics.quantiles(data, n=4)] with its default "exclusive"
   method, transcribed integer step for integer step, so spreads computed
   here match the ones an outside checker computes from the same runs. *)
let quartiles xs =
  match sorted xs with
  | [||] -> (Float.nan, Float.nan, Float.nan)
  | [| x |] -> (x, x, x)
  | a ->
    let ld = Array.length a in
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
    in
    (q 1, q 2, q 3)

let spread xs =
  let q1, q2, q3 = quartiles xs in
  if q2 = 0.0 then Float.nan else (q3 -. q1) /. Float.abs q2

let tail_ladder = [ 99.9; 99.0; 95.0; 90.0; 75.0; 50.0 ]

type tail = { percentile : float; value : float; samples : int; beyond : int }

(* The highest ladder percentile with at least ten samples strictly above
   its nearest-rank position.  A fixed ladder, rather than the exact
   [1 - 10/n] quantile, keeps the reported percentile constant while the
   sample count drifts between runs of one workload. *)
let tail xs =
  let a = sorted xs in
  let n = Array.length a in
  let pick p =
    let rank = int_of_float (Float.ceil ((p /. 100.0 *. float_of_int n) -. 1e-9)) in
    let idx = max 0 (min (n - 1) (rank - 1)) in
    (idx, n - 1 - idx)
  in
  let rec go = function
    | [] -> None
    | p :: rest ->
      let idx, beyond = pick p in
      if n > 0 && beyond >= 10 then Some { percentile = p; value = a.(idx); samples = n; beyond }
      else go rest
  in
  go tail_ladder
