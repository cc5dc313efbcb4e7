module Config = Taskgraph.Config
module Lp = Simplex.Lp
module Model = Conic.Model
module Socp = Conic.Socp

type budget_policy = Min_budget | Fair_share
type buffer_policy = At_bound | Uniform of int

type result = {
  mapped : Config.mapped;
  objective : float;
  rounds : int;
  certificate : Certify.t;
}

type error = Infeasible of string | Solver_failure of string

let pp_error ppf = function
  | Infeasible msg -> Format.fprintf ppf "infeasible: %s" msg
  | Solver_failure msg -> Format.fprintf ppf "solver failure: %s" msg

let ( let* ) = Result.bind

let objective_of cfg (mapped : Config.mapped) =
  List.fold_left
    (fun acc w -> acc +. (Config.task_weight cfg w *. mapped.Config.budget w))
    0.0 (Config.all_tasks cfg)
  +. List.fold_left
       (fun acc b ->
         acc
         +. Config.buffer_weight cfg b
            *. float_of_int
                 (Config.container_size cfg b
                 * (mapped.Config.capacity b - Config.initial_tokens cfg b)))
       0.0 (Config.all_buffers cfg)

(* ------------------------------------------------------------------ *)
(* Phase 1 budget policies                                             *)
(* ------------------------------------------------------------------ *)

let min_budget cfg w =
  let p = Config.task_proc cfg w in
  let mu = Config.period cfg (Config.task_graph cfg w) in
  let need = Config.replenishment cfg p *. Config.wcet cfg w /. mu in
  Rounding.round_budget ~granularity:(Config.granularity cfg) need

let fair_share cfg w =
  let p = Config.task_proc cfg w in
  let n = List.length (Config.tasks_on cfg p) in
  let share =
    (Config.replenishment cfg p -. Config.overhead cfg p) /. float_of_int n
  in
  (* Round the share DOWN to the granularity so the shares still fit. *)
  let granularity = Config.granularity cfg in
  let share = granularity *. Float.max 1.0 (floor (share /. granularity)) in
  share

let budgets_of_policy cfg = function
  | Min_budget -> min_budget cfg
  | Fair_share -> fair_share cfg

let check_budgets cfg budget =
  let problems =
    List.concat_map
      (fun p ->
        let used =
          List.fold_left
            (fun acc w -> acc +. budget w)
            (Config.overhead cfg p)
            (Config.tasks_on cfg p)
        in
        if used > Config.replenishment cfg p +. 1e-9 then
          [
            Printf.sprintf "processor %s oversubscribed by the budget policy"
              (Config.proc_name cfg p);
          ]
        else [])
      (Config.processors cfg)
    @ List.concat_map
        (fun w ->
          let p = Config.task_proc cfg w in
          let mu = Config.period cfg (Config.task_graph cfg w) in
          if Config.replenishment cfg p *. Config.wcet cfg w /. budget w > mu
          then
            [
              Printf.sprintf
                "task %s: policy budget %g cannot sustain the period"
                (Config.task_name cfg w) (budget w);
            ]
          else [])
        (Config.all_tasks cfg)
  in
  if problems = [] then Ok () else Error (Infeasible (String.concat "; " problems))

(* ------------------------------------------------------------------ *)
(* Phase 2: buffer sizing at fixed budgets — a pure LP                 *)
(* ------------------------------------------------------------------ *)

(* With β fixed, the actor durations ρ(v1) = ̺ − β and ρ(v2) = ̺·χ/β are
   constants, so Constraints (6), (7) and (10) over the start times and
   the continuous space tokens δ′ form a linear program, solved with
   the two-phase simplex (float pivots with fixed tolerances, see
   [Simplex.Tableau]). *)
let buffer_lp cfg ~budget =
  let p = Lp.create () in
  let s1 = Hashtbl.create 16 and s2 = Hashtbl.create 16 in
  let dvar = Hashtbl.create 16 in
  List.iter
    (fun w ->
      let n = Config.task_name cfg w in
      Hashtbl.replace s1 (Config.task_id w)
        (Lp.add_variable p ~name:("s." ^ n ^ ".1") ~lb:None ());
      Hashtbl.replace s2 (Config.task_id w)
        (Lp.add_variable p ~name:("s." ^ n ^ ".2") ~lb:None ()))
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
           ~name:("delta'." ^ Config.buffer_name cfg b)
           ~lb:(Some 0.0) ~ub ()))
    (Config.all_buffers cfg);
  let sv1 w = Hashtbl.find s1 (Config.task_id w)
  and sv2 w = Hashtbl.find s2 (Config.task_id w)
  and dv b = Hashtbl.find dvar (Config.buffer_id b) in
  let rho1 w =
    let proc = Config.task_proc cfg w in
    Config.replenishment cfg proc -. budget w
  in
  let rho2 w =
    let proc = Config.task_proc cfg w in
    Config.replenishment cfg proc *. Config.wcet cfg w /. budget w
  in
  List.iter
    (fun w ->
      let mu = Config.period cfg (Config.task_graph cfg w) in
      (* (6): s(v2) − s(v1) ≥ ρ(v1). *)
      ignore (Lp.add_constraint p [ (1.0, sv2 w); (-1.0, sv1 w) ] Lp.Ge (rho1 w));
      (* Self-loop: ρ(v2) ≤ µ — no variables, fail fast. *)
      if rho2 w > mu +. 1e-9 then
        ignore (Lp.add_constraint p [] Lp.Ge 1.0 (* constant infeasible row *)))
    (Config.all_tasks cfg);
  List.iter
    (fun b ->
      let wa = Config.buffer_src cfg b and wb = Config.buffer_dst cfg b in
      let mu = Config.period cfg (Config.task_graph cfg wa) in
      let iota = float_of_int (Config.initial_tokens cfg b) in
      (* Data queue: s(b1) − s(a2) ≥ ρ(a2) − ι·µ. *)
      ignore (Lp.add_constraint p [ (1.0, sv1 wb); (-1.0, sv2 wa) ] Lp.Ge (rho2 wa -. (iota *. mu)));
      (* Space queue: s(a1) − s(b2) + µ·δ′ ≥ ρ(b2). *)
      ignore (Lp.add_constraint p [ (1.0, sv1 wa); (-1.0, sv2 wb); (mu, dv b) ] Lp.Ge (rho2 wb)))
    (Config.all_buffers cfg);
  List.iter
    (fun mem ->
      let bufs = Config.buffers_in cfg mem in
      if bufs <> [] then begin
        let terms =
          List.map
            (fun b -> (float_of_int (Config.container_size cfg b), dv b))
            bufs
        in
        let consumed =
          List.fold_left
            (fun acc b ->
              acc
              + (Config.container_size cfg b
                * (Config.initial_tokens cfg b + 1)))
            0 bufs
        in
        ignore (Lp.add_constraint p terms Lp.Le (float_of_int (Config.memory_capacity cfg mem - consumed)))
      end)
    (Config.memories cfg);
  Lp.set_objective p
    (List.map
       (fun b ->
         ( Config.buffer_weight cfg b
           *. float_of_int (Config.container_size cfg b),
           dv b ))
       (Config.all_buffers cfg));
  match Lp.solve p with
  | Lp.Infeasible ->
    Error
      (Infeasible
         "buffer-sizing LP infeasible for the phase-1 budgets (a joint \
          assignment may still exist)")
  | Lp.Unbounded -> Error (Solver_failure "buffer-sizing LP unbounded")
  | Lp.Optimal { value; _ } ->
    Ok
      (fun b ->
        Rounding.round_capacity
          ~initial_tokens:(Config.initial_tokens cfg b)
          (value (dv b)))

(* The exact certificate is the verdict: a refuted mapping is an error,
   so an [Ok] result is always certified. *)
let certified_or_error what mapped certificate ~objective ~rounds =
  if Certify.certified certificate then
    Ok { mapped; objective = objective (); rounds; certificate }
  else
    Error
      (Solver_failure
         (Printf.sprintf "%s failed certification: %s" what
            (Certify.summary certificate)))

let settle ?obs f =
  match f () with
  | exception Rounding.Non_finite { what; value } ->
    Error
      (Printf.sprintf
         "non-finite %s %h emitted by the solver; rounding refused" what value)
  | (_, certificate) as settled ->
    (match obs with
    | None -> ()
    | Some o ->
      Obs.Ctx.emit o
        (Obs.Trace.Certificate
           {
             verdict =
               (if Certify.certified certificate then "certified"
                else "refuted");
           }));
    Ok settled

let finish ?obs cfg ~budget ~capacity ~rounds =
  let mapped = { Config.budget; Config.capacity } in
  match settle ?obs (fun () -> (mapped, Certify.check cfg mapped)) with
  | Error msg -> Error (Solver_failure msg)
  | Ok (mapped, certificate) ->
    certified_or_error "two-phase result" mapped certificate
      ~objective:(fun () -> objective_of cfg mapped)
      ~rounds

let budget_first ?(policy = Min_budget) ?obs cfg =
  let budget = budgets_of_policy cfg policy in
  let* () = check_budgets cfg budget in
  let* capacity = buffer_lp cfg ~budget in
  finish ?obs cfg ~budget ~capacity ~rounds:2

(* ------------------------------------------------------------------ *)
(* Phase 2': budgets at fixed capacities — the cone program with δ′    *)
(* pinned                                                              *)
(* ------------------------------------------------------------------ *)

let budgets_at_fixed_capacity cfg ~capacity =
  let builder = Socp_builder.build cfg in
  let m = builder.Socp_builder.model in
  List.iter
    (fun b ->
      let fixed =
        float_of_int (capacity b - Config.initial_tokens cfg b)
      in
      Model.fix m (builder.Socp_builder.space_var b) fixed)
    (Config.all_buffers cfg);
  let result = Model.solve m in
  match result.Model.status with
  | Socp.Primal_infeasible ->
    Error
      (Infeasible
         "budget phase infeasible for the phase-1 buffer capacities (a \
          joint assignment may still exist)")
  | Socp.Dual_infeasible | Socp.Iteration_limit | Socp.Stalled
  | Socp.Timed_out ->
    Error
      (Solver_failure
         (Format.asprintf "cone solve stopped with status %a" Socp.pp_status
            result.Model.status))
  | Socp.Optimal ->
    let continuous = Socp_builder.extract cfg builder result in
    (* Round eagerly: a NaN budget surfaces here as a typed error
       instead of escaping from some later closure call. *)
    (match
       (* Slot [i] holds task id [i]: [all_tasks] is in id order. *)
       Array.map
         (fun w ->
           Rounding.round_budget
             ~granularity:(Config.granularity cfg)
             (continuous.Socp_builder.budget w))
         (Array.of_list (Config.all_tasks cfg))
     with
    | exception Rounding.Non_finite { what; value } ->
      Error
        (Solver_failure
           (Printf.sprintf
              "non-finite %s %h emitted by the solver; rounding refused" what
              value))
    | budgets -> Ok (fun w -> budgets.(Config.task_id w)))

let buffer_first ?(policy = At_bound) ?(fallback = 2) cfg =
  if fallback < 1 then invalid_arg "Two_phase.buffer_first: fallback < 1";
  let capacity b =
    match policy with
    | Uniform n -> Int.max 1 (Config.initial_tokens cfg b + n)
    | At_bound -> begin
      match Config.max_capacity cfg b with
      | Some cap -> cap
      | None -> Int.max 1 (Config.initial_tokens cfg b + fallback)
    end
  in
  let* budget = budgets_at_fixed_capacity cfg ~capacity in
  finish cfg ~budget ~capacity ~rounds:2

(* ------------------------------------------------------------------ *)
(* Alternating coordinate descent                                      *)
(* ------------------------------------------------------------------ *)

let alternating ?(max_rounds = 10) cfg =
  let budget0 = budgets_of_policy cfg Fair_share in
  let* () = check_budgets cfg budget0 in
  let rec loop budget best rounds =
    if rounds >= max_rounds then Ok best
    else begin
      match buffer_lp cfg ~budget with
      | Error e -> if rounds = 0 then Error e else Ok best
      | Ok capacity -> begin
        match budgets_at_fixed_capacity cfg ~capacity with
        | Error e -> if rounds = 0 then Error e else Ok best
        | Ok budget' ->
          let mapped = { Config.budget = budget'; Config.capacity = capacity } in
          let obj = objective_of cfg mapped in
          let improved =
            match best with
            | None -> true
            | Some (_, prev_obj, _) -> obj < prev_obj -. 1e-6
          in
          let best' =
            if improved then Some (mapped, obj, (2 * rounds) + 2) else best
          in
          if improved then loop budget' best' (rounds + 1)
          else Ok best'
      end
    end
  in
  let* best = loop budget0 None 0 in
  match best with
  | None -> Error (Infeasible "alternating flow found no feasible point")
  | Some (mapped, objective, rounds) ->
    certified_or_error "alternating result" mapped
      (Certify.check cfg mapped) ~objective:(fun () -> objective) ~rounds

let buffer_sizing_lp = buffer_lp
