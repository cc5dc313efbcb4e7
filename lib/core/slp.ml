module Config = Taskgraph.Config

type outcome = {
  mapped : Config.mapped;
  objective : float;
  iterations : int;
  converged : bool;
  verified : bool;
}

type error = Two_phase.error = Infeasible of string | Solver_failure of string

let pp_error = Two_phase.pp_error

(* One LP solve at frozen reciprocals λ, so ρ(v2) = ̺·χ·λ; returns the
   new budgets and continuous space tokens. *)
let lp_step cfg lambda =
  let duration w =
    Config.replenishment cfg (Config.task_proc cfg w)
    *. Config.wcet cfg w *. lambda w
  in
  match Two_phase.linear_program cfg ~duration ~budget:`Free with
  | Error `Infeasible ->
    Error (Infeasible "LP step infeasible for the frozen reciprocals")
  | Error `Unbounded -> Error (Solver_failure "LP step unbounded")
  | Ok step -> Ok step

let solve ?(max_iterations = 25) ?(tolerance = 1e-6) ?(initial = 1.0) cfg =
  if max_iterations < 1 then invalid_arg "Slp.solve: max_iterations < 1";
  let g = Config.granularity cfg in
  (* The λ update clamps β into [max(g, ̺χ/µ), fair share] so the
     frozen durations stay meaningful. *)
  let min_budget w =
    let p = Config.task_proc cfg w in
    let mu = Config.period cfg (Config.task_graph cfg w) in
    Float.max g (Config.replenishment cfg p *. Config.wcet cfg w /. mu)
  in
  let fair w =
    let p = Config.task_proc cfg w in
    (Config.replenishment cfg p -. Config.overhead cfg p)
    /. float_of_int (List.length (Config.tasks_on cfg (Config.task_proc cfg w)))
    -. g
  in
  let clamp w beta = Float.max (min_budget w) (Float.min (fair w) beta) in
  let beta0 w = clamp w (initial *. fair w) in
  (* Slot [i] holds task id [i]: [all_tasks] is in id order. *)
  let tasks = Config.all_tasks cfg in
  let budgets = Array.of_list (List.map beta0 tasks) in
  let rec iterate k =
    match lp_step cfg (fun w -> 1.0 /. budgets.(Config.task_id w)) with
    | Error _ as e -> e
    | Ok (beta, space) ->
      let delta = ref 0.0 in
      List.iter
        (fun w ->
          let fresh = clamp w (beta w) in
          let i = Config.task_id w in
          delta := Float.max !delta (Float.abs (fresh -. budgets.(i)));
          budgets.(i) <- fresh)
        tasks;
      if !delta <= tolerance || k + 1 >= max_iterations then
        Ok (k + 1, !delta <= tolerance, space)
      else iterate (k + 1)
  in
  match iterate 0 with
  | Error _ as e -> e
  | Ok (iterations, converged, space) ->
    let mapped =
      {
        Config.budget =
          (fun w ->
            Rounding.round_budget ~granularity:g budgets.(Config.task_id w));
        Config.capacity =
          (fun b ->
            Rounding.round_capacity
              ~initial_tokens:(Config.initial_tokens cfg b)
              (space b));
      }
    in
    let objective = Two_phase.objective_of cfg mapped in
    let verified = Certify.certified (Certify.check cfg mapped) in
    Ok { mapped; objective; iterations; converged; verified }
