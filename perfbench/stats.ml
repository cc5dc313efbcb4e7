(* Order statistics over latency samples.  Percentiles use the
   nearest-rank rule on the sorted samples, so a reported value is
   always one that was measured. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let sum xs = List.fold_left ( +. ) 0.0 xs

(* [rank n p] is the 1-based nearest rank of percentile [p] among [n]. *)
let rank n p = max 1 (min n (int_of_float (Float.ceil (p /. 100.0 *. float_of_int n))))

let percentile xs p =
  match xs with
  | [] -> None
  | _ ->
    let a = sorted xs in
    Some a.(rank (Array.length a) p - 1)

let median xs = percentile xs 50.0

(* The highest percentile worth reporting is one with at least ten
   samples above it: below that a single slow op moves it. *)
let p90 xs =
  let n = List.length xs in
  if n - rank n 90.0 >= 10 then percentile xs 90.0 else None

let median_exn xs =
  match median xs with Some v -> v | None -> invalid_arg "Stats.median_exn: no samples"
