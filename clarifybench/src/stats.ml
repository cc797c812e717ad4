(* Sample statistics for the benchmark's reports.

   Percentiles use the nearest-rank definition. A percentile is only
   reported when at least ten samples lie beyond it: p99 needs 1000
   samples, p95 needs 200, p50 needs 20. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* The 1-based nearest rank of percentile [p] among [n] samples. *)
let nearest ~n p = int_of_float (ceil (p *. float_of_int n /. 100.))

let supported ~n p = n - nearest ~n p >= 10

(* Nearest rank over an already sorted array; [nan] when empty. *)
let rank sorted p =
  match Array.length sorted with
  | 0 -> Float.nan
  | n -> sorted.(max 0 (min (n - 1) (nearest ~n p - 1)))

let percentile xs p =
  let n = List.length xs in
  if supported ~n p then Some (rank (sorted xs) p) else None

(* The highest of [ps] (descending preference) that [n] samples support. *)
let highest_supported ~n ps = List.find_opt (supported ~n) ps

(* The median ignores the ten-beyond rule: it summarizes the handful of
   repeated whole operations (fleet runs, audit sweeps, set-ups) too. *)
let median xs = rank (sorted xs) 50.

let sum xs = List.fold_left ( +. ) 0. xs

let ratio a b = if b = 0. then 0. else a /. b

(* Percentile [p], or, when too few samples support it (a short run),
   the highest of p99, p95, p90 below it that they do, else the
   median. *)
let capped xs p =
  let n = List.length xs in
  let q =
    Option.value ~default:50.
      (highest_supported ~n (List.filter (fun q -> q <= p) [ 99.; 95.; 90. ]))
  in
  rank (sorted xs) q
