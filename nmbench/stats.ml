(* Order statistics over float samples. *)

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile: the smallest sample with at least [p] percent
   of the samples at or below it. [nan] on no samples. *)
let nearest_rank p xs =
  let n = Array.length xs in
  if n = 0 then Float.nan
  else
    let a = sorted xs in
    let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

(* Middle sample, or the mean of the two middle samples. *)
let median xs =
  let n = Array.length xs in
  if n = 0 then Float.nan
  else
    let a = sorted xs in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let sum xs = Array.fold_left ( +. ) 0. xs

let mean xs =
  let n = Array.length xs in
  if n = 0 then Float.nan else sum xs /. float_of_int n
