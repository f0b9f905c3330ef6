(* Order statistics over op samples.  Percentiles interpolate linearly
   between closest ranks (the "type 7" estimator numpy and Python's
   statistics module's "inclusive" method use), so a percentile that
   falls between two clusters of op costs moves smoothly with the
   sample mix instead of jumping from one cluster to the next. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let percentile_sorted a p =
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.percentile: no samples";
  if p < 0.0 || p > 1.0 then invalid_arg "Stats.percentile: p outside [0, 1]";
  let h = p *. float_of_int (n - 1) in
  let lo = int_of_float h in
  let hi = min (n - 1) (lo + 1) in
  a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let percentile xs p = percentile_sorted (sorted xs) p
let median xs = percentile xs 0.5

let mean = function
  | [] -> invalid_arg "Stats.mean: no samples"
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* Samples strictly beyond the [p] percentile of [n] samples: the
   ranks above position [p * (n - 1)]. *)
let samples_beyond ~n p =
  if n <= 0 then 0 else n - 1 - int_of_float (Float.floor (p *. float_of_int (n - 1)))

(* The fewest samples for which at least [tail] of them lie beyond the
   [p] percentile — 100 for p90 with ten beyond, 1000 for p99. *)
let samples_needed ?(tail = 10) p =
  let rec go n = if samples_beyond ~n p >= tail then n else go (n + 1) in
  go 1
