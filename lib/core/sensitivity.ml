let budget_slack ?(tolerance = 1e-6) cfg g (mapped : Taskgraph.Config.mapped) w
    =
  let feasible = Certify.schedulable_budget cfg g mapped w in
  let current = mapped.Taskgraph.Config.budget w in
  if not (feasible current) then 0.0
  else begin
    (* Halve down to the smallest feasible budget in (0, current]. *)
    let rec halve lo hi iters =
      (* Invariant: hi feasible, lo infeasible (or 0). *)
      if iters = 0 || hi -. lo <= tolerance then hi
      else begin
        let mid = 0.5 *. (lo +. hi) in
        if feasible mid then halve lo mid (iters - 1)
        else halve mid hi (iters - 1)
      end
    in
    current -. halve 0.0 current 100
  end
