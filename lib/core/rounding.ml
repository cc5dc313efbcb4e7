(* The tolerance matches the solver accuracy: a continuous value within
   1e-6 of a grid point is snapped down rather than rounded a whole
   granule up.  Callers certify the rounded mapping and fall back to
   strict (eps = 0) rounding should the snap ever be unsound. *)
let round_eps = 1e-6

exception Non_finite of { what : string; value : float }

(* A NaN or infinite solver output would flow straight through
   [ceil]/[int_of_float] into garbage (NaN budgets, 0 capacities);
   refuse loudly with a typed error the recovery ladder can catch. *)
let ensure_finite what value =
  if not (Float.is_finite value) then raise (Non_finite { what; value })

let round_budget_eps ~eps ~granularity beta' =
  ensure_finite "budget" beta';
  let q = ceil ((beta' /. granularity) -. eps) in
  granularity *. Float.max 1.0 q

let round_capacity_eps ~eps ~initial_tokens delta' =
  ensure_finite "buffer space" delta';
  let q = int_of_float (ceil (delta' -. eps)) in
  Int.max 1 (initial_tokens + Int.max 0 q)

let round_budget ~granularity beta' =
  round_budget_eps ~eps:round_eps ~granularity beta'

let round_capacity ~initial_tokens delta' =
  round_capacity_eps ~eps:round_eps ~initial_tokens delta'
