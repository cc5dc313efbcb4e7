module Config = Taskgraph.Config

type point = {
  weight_ratio : float;
  budget_sum : float;
  buffer_containers : int;
  rounded_objective : float;
  certified : bool;
}

type sweep = { points : point list; skipped : (float * string) list }

let pp_point ppf p =
  Format.fprintf ppf "ratio %.3g: budgets %.4f, %d containers" p.weight_ratio
    p.budget_sum p.buffer_containers

(* Journal payload of one frontier candidate (docs/formats.md).  The
   frontier pruning happens after the sweep, so the journal records the
   raw per-ratio outcome.  Timed-out candidates are not journaled: a
   resume retries them. *)
let encode_outcome = function
  | `Point p ->
    Some
      (String.concat " "
         [
           "point";
           Durability.float_to_token p.weight_ratio;
           Durability.float_to_token p.budget_sum;
           string_of_int p.buffer_containers;
           Durability.float_to_token p.rounded_objective;
           (if p.certified then "cert" else "uncert");
         ])
  | `Infeasible -> Some "infeasible"
  | `Skipped (ratio, reason) ->
    if String.equal reason "timed out" then None
    else
      Some
        (Printf.sprintf "skip %s %S" (Durability.float_to_token ratio) reason)

let decode_outcome payload =
  if String.equal payload "infeasible" then Some `Infeasible
  else
    match
      let ib = Scanf.Scanning.from_string payload in
      match Durability.scan_token ib with
      | "point" ->
        let weight_ratio = Durability.scan_float ib in
        let budget_sum = Durability.scan_float ib in
        let buffer_containers = Durability.scan_int ib in
        let rounded_objective = Durability.scan_float ib in
        let certified =
          match Durability.scan_token ib with
          | "cert" -> true
          | "uncert" -> false
          | _ -> raise (Scanf.Scan_failure "malformed certification token")
        in
        Some
          (`Point
            {
              weight_ratio;
              budget_sum;
              buffer_containers;
              rounded_objective;
              certified;
            })
      | "skip" ->
        let ratio = Durability.scan_float ib in
        Some (`Skipped (ratio, Durability.scan_quoted ib))
      | _ -> None
    with
    | v -> v
    | exception (Scanf.Scan_failure _ | Failure _ | End_of_file) -> None

let frontier ?(steps = 9) ?fault ?pool ?deadline ?candidate_deadline
    ?journal ?cancel ?obs ?on_progress cfg =
  if steps < 1 then invalid_arg "Pareto.frontier: steps must be >= 1";
  let fault = match fault with Some f -> f | None -> Robust.Fault.of_env () in
  let tasks = Config.all_tasks cfg and buffers = Config.all_buffers cfg in
  (* Geometric sweep of the budget-to-buffer weight ratio; every ratio
     reweights its own clone so the candidate solves are independent
     (and [cfg] keeps its weights without any restore dance). *)
  let lo = 1e-3 and hi = 1e3 in
  let ratios =
    if steps = 1 then [| 1.0 |]
    else
      Array.init steps (fun i ->
          lo *. ((hi /. lo) ** (float_of_int i /. float_of_int (steps - 1))))
  in
  let candidate i =
    let c = Config.copy cfg in
    List.iter (fun w -> Config.set_task_weight c w ratios.(i)) tasks;
    List.iter (fun b -> Config.set_buffer_weight c b 1.0) buffers;
    c
  in
  (* One cold anchor (the first candidate) seeds every candidate —
     order-independent, hence pool- and resume-safe; see
     [Durability.warm_anchor]. *)
  let warm =
    Durability.warm_anchor
      ~deadline:(Durable.Sweep.candidate_deadline deadline candidate_deadline)
      (candidate 0)
  in
  (* Per-candidate outcome: a solver failure (or a crash) is reported
     in [skipped] while the rest of the frontier survives; a plain
     infeasibility verdict is silently dropped (an infeasible instance
     has no frontier points at any ratio). *)
  let solve_ratio ~deadline index =
    let ratio = ratios.(index) in
    let params = Durability.params ~deadline ?obs ?warm None in
    match
      Mapping.solve ?params
        ~fault:(Robust.Fault.for_candidate fault ~index)
        (candidate index)
    with
    | Ok r ->
      let budget_sum =
        List.fold_left
          (fun acc w -> acc +. r.Mapping.continuous.Socp_builder.budget w)
          0.0 tasks
      in
      let buffer_containers =
        List.fold_left
          (fun acc b -> acc + r.Mapping.mapped.Config.capacity b)
          0 buffers
      in
      `Point
        {
          weight_ratio = ratio;
          budget_sum;
          buffer_containers;
          rounded_objective = r.Mapping.rounded_objective;
          certified = Certify.certified r.Mapping.certificate;
        }
    | Error (Mapping.Infeasible _) -> `Infeasible
    | Error ((Mapping.Solver_failure _ | Mapping.Timed_out _) as e) ->
      `Skipped (ratio, Mapping.short_reason e)
  in
  let results, _ =
    Durable.Sweep.run ?pool ?journal ?obs ?deadline ?candidate_deadline ?cancel
      ?on_progress ~encode:encode_outcome
      ~decode:(fun _ payload -> decode_outcome payload)
      ~verdict:(function
        | `Point _ -> "ok"
        | `Infeasible -> "infeasible"
        | `Skipped _ -> "skipped")
      ~failed:(fun i _ -> `Skipped (ratios.(i), "exception"))
      ~n:steps solve_ratio
  in
  let outcomes = List.filter_map Fun.id (Array.to_list results) in
  let raw =
    List.filter_map (function `Point p -> Some p | _ -> None) outcomes
  in
  let skipped =
    List.filter_map (function `Skipped s -> Some s | _ -> None) outcomes
  in
  (* Keep the non-dominated points (smaller budget AND smaller
     buffers is better), sorted by buffer use.  Budgets compare in
     whole granules: the continuous sum differs by solver noise from
     recovery rung to recovery rung, so it must not decide which of
     several tied ratios represents a point.  Ties keep the smallest
     ratio. *)
  let granules p = Float.round (p.budget_sum /. Config.granularity cfg) in
  let sorted =
    List.sort
      (fun p1 p2 ->
        compare
          (p1.buffer_containers, granules p1, p1.weight_ratio)
          (p2.buffer_containers, granules p2, p2.weight_ratio))
      raw
  in
  let rec prune best = function
    | [] -> []
    | p :: rest ->
      if granules p < best then p :: prune (granules p) rest
      else prune best rest
  in
  { points = prune infinity sorted; skipped }
