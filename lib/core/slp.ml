module Config = Taskgraph.Config
module Lp = Simplex.Lp

type outcome = {
  mapped : Config.mapped;
  objective : float;
  iterations : int;
  converged : bool;
  verified : bool;
}

type error = Infeasible of string | Solver_failure of string

let pp_error ppf = function
  | Infeasible msg -> Format.fprintf ppf "infeasible: %s" msg
  | Solver_failure msg -> Format.fprintf ppf "solver failure: %s" msg

(* One LP solve at frozen reciprocals λ; returns the new budgets and
   continuous space tokens. *)
let lp_step cfg lambda =
  let p = Lp.create () in
  let s1 = Hashtbl.create 16 and s2 = Hashtbl.create 16 in
  let bvar = Hashtbl.create 16 and dvar = Hashtbl.create 16 in
  List.iter
    (fun w ->
      let n = Config.task_name cfg w in
      Hashtbl.replace s1 (Config.task_id w)
        (Lp.add_variable p ~name:("s." ^ n ^ ".1") ~lb:None ());
      Hashtbl.replace s2 (Config.task_id w)
        (Lp.add_variable p ~name:("s." ^ n ^ ".2") ~lb:None ());
      Hashtbl.replace bvar (Config.task_id w)
        (Lp.add_variable p ~name:("beta." ^ n) ()))
    (Config.all_tasks cfg);
  List.iter
    (fun b ->
      let iota = Config.initial_tokens cfg b in
      let ub =
        match Config.max_capacity cfg b with
        | None -> None
        | Some cap -> Some (float_of_int (cap - iota))
      in
      Hashtbl.replace dvar (Config.buffer_id b)
        (Lp.add_variable p
           ~name:("delta." ^ Config.buffer_name cfg b)
           ~lb:(Some 0.0) ~ub ()))
    (Config.all_buffers cfg);
  let sv1 w = Hashtbl.find s1 (Config.task_id w)
  and sv2 w = Hashtbl.find s2 (Config.task_id w)
  and bv w = Hashtbl.find bvar (Config.task_id w)
  and dv b = Hashtbl.find dvar (Config.buffer_id b) in
  let rho2 w =
    let proc = Config.task_proc cfg w in
    Config.replenishment cfg proc *. Config.wcet cfg w *. lambda w
  in
  List.iter
    (fun w ->
      let proc = Config.task_proc cfg w in
      let repl = Config.replenishment cfg proc in
      (* (6) with β as a variable: s2 − s1 + β ≥ ̺. *)
      ignore
        (Lp.add_constraint p
           [ (1.0, sv2 w); (-1.0, sv1 w); (1.0, bv w) ]
           Lp.Ge repl))
    (Config.all_tasks cfg);
  List.iter
    (fun b ->
      let wa = Config.buffer_src cfg b and wb = Config.buffer_dst cfg b in
      let mu = Config.period cfg (Config.task_graph cfg wa) in
      let iota = float_of_int (Config.initial_tokens cfg b) in
      ignore
        (Lp.add_constraint p
           [ (1.0, sv1 wb); (-1.0, sv2 wa) ]
           Lp.Ge
           (rho2 wa -. (iota *. mu)));
      ignore
        (Lp.add_constraint p
           [ (1.0, sv1 wa); (-1.0, sv2 wb); (mu, dv b) ]
           Lp.Ge (rho2 wb)))
    (Config.all_buffers cfg);
  let g = Config.granularity cfg in
  List.iter
    (fun proc ->
      let tasks = Config.tasks_on cfg proc in
      if tasks <> [] then begin
        let bound =
          Config.replenishment cfg proc -. Config.overhead cfg proc
          -. (float_of_int (List.length tasks) *. g)
        in
        ignore
          (Lp.add_constraint p
             (List.map (fun w -> (1.0, bv w)) tasks)
             Lp.Le bound)
      end)
    (Config.processors cfg);
  List.iter
    (fun mem ->
      let bufs = Config.buffers_in cfg mem in
      if bufs <> [] then begin
        let consumed =
          List.fold_left
            (fun acc b ->
              acc
              + (Config.container_size cfg b * (Config.initial_tokens cfg b + 1)))
            0 bufs
        in
        ignore
          (Lp.add_constraint p
             (List.map
                (fun b -> (float_of_int (Config.container_size cfg b), dv b))
                bufs)
             Lp.Le
             (float_of_int (Config.memory_capacity cfg mem - consumed)))
      end)
    (Config.memories cfg);
  Lp.set_objective p
    (List.map (fun w -> (Config.task_weight cfg w, bv w)) (Config.all_tasks cfg)
    @ List.map
        (fun b ->
          ( Config.buffer_weight cfg b
            *. float_of_int (Config.container_size cfg b),
            dv b ))
        (Config.all_buffers cfg));
  match Lp.solve p with
  | Lp.Infeasible ->
    Error (Infeasible "LP step infeasible for the frozen reciprocals")
  | Lp.Unbounded -> Error (Solver_failure "LP step unbounded")
  | Lp.Optimal { value; _ } ->
    Ok ((fun w -> value (bv w)), fun b -> value (dv b))

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
  let budgets = Hashtbl.create 16 in
  List.iter
    (fun w -> Hashtbl.replace budgets (Config.task_id w) (beta0 w))
    (Config.all_tasks cfg);
  let rec iterate k _last_space =
    let lambda w = 1.0 /. Hashtbl.find budgets (Config.task_id w) in
    match lp_step cfg lambda with
    | Error _ as e -> e
    | Ok (beta, space) ->
      let delta = ref 0.0 in
      List.iter
        (fun w ->
          let fresh = clamp w (beta w) in
          let prev = Hashtbl.find budgets (Config.task_id w) in
          delta := Float.max !delta (Float.abs (fresh -. prev));
          Hashtbl.replace budgets (Config.task_id w) fresh)
        (Config.all_tasks cfg);
      if !delta <= tolerance || k + 1 >= max_iterations then
        Ok (k + 1, !delta <= tolerance, space)
      else iterate (k + 1) (Some space)
  in
  match iterate 0 None with
  | Error _ as e -> e
  | Ok (iterations, converged, space) ->
    let mapped =
      {
        Config.budget =
          (fun w ->
            Rounding.round_budget ~granularity:g
              (Hashtbl.find budgets (Config.task_id w)));
        Config.capacity =
          (fun b ->
            Rounding.round_capacity
              ~initial_tokens:(Config.initial_tokens cfg b)
              (space b));
      }
    in
    let objective =
      List.fold_left
        (fun acc w ->
          acc +. (Config.task_weight cfg w *. mapped.Config.budget w))
        0.0 (Config.all_tasks cfg)
      +. List.fold_left
           (fun acc b ->
             acc
             +. Config.buffer_weight cfg b
                *. float_of_int
                     (Config.container_size cfg b
                     * (mapped.Config.capacity b - Config.initial_tokens cfg b)))
           0.0 (Config.all_buffers cfg)
    in
    let verified = Certify.certified (Certify.check cfg mapped) in
    Ok { mapped; objective; iterations; converged; verified }
