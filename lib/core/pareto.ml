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

let frontier ?(steps = 9) ?fault ?pool ?deadline ?candidate_deadline
    ?journal ?cancel ?obs ?on_progress cfg =
  if steps < 1 then invalid_arg "Pareto.frontier: steps must be >= 1";
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
  let results =
    Durability.solve_candidates ?fault ?pool ?deadline ?candidate_deadline
      ?journal ?cancel ?obs ?on_progress cfg ~n:steps ~candidate
  in
  let point weight_ratio (r : Mapping.result) =
    {
      weight_ratio;
      budget_sum =
        List.fold_left
          (fun acc w -> acc +. r.Mapping.continuous.Socp_builder.budget w)
          0.0 tasks;
      buffer_containers =
        List.fold_left
          (fun acc b -> acc + r.Mapping.mapped.Config.capacity b)
          0 buffers;
      rounded_objective = r.Mapping.rounded_objective;
      certified = Certify.certified r.Mapping.certificate;
    }
  in
  let outcomes =
    List.filter_map
      (fun (ratio, r) -> Option.map (fun r -> (ratio, r)) r)
      (List.combine (Array.to_list ratios) (Array.to_list results))
  in
  let raw =
    List.filter_map
      (function ratio, Ok r -> Some (point ratio r) | _, Error _ -> None)
      outcomes
  in
  (* A solver failure, a crash or a timeout is reported in [skipped]
     while the rest of the frontier survives; a plain infeasibility
     verdict is silently dropped (an infeasible instance has no
     frontier points at any ratio). *)
  let skipped = Mapping.skipped Fun.id outcomes in
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
