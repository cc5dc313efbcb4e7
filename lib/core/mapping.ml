module Config = Taskgraph.Config
module Socp = Conic.Socp
module Model = Conic.Model
module Recovery = Robust.Recovery
module Fault = Robust.Fault

type stats = {
  variables : int;
  rows : int;
  iterations : int;
  attempts : int;
  solve_time_s : float;
  kkt_fallbacks : int;
}

type result = {
  mapped : Config.mapped;
  continuous : Socp_builder.continuous;
  objective : float;
  rounded_objective : float;
  certificate : Certify.t;
  recovery : Recovery.trace;
  stats : stats;
}

type error =
  | Infeasible of string
  | Solver_failure of string
  | Timed_out of string

let pp_error ppf = function
  | Infeasible msg -> Format.fprintf ppf "infeasible: %s" msg
  | Solver_failure msg -> Format.fprintf ppf "solver failure: %s" msg
  | Timed_out msg -> Format.fprintf ppf "timed out: %s" msg

(* Short, stable label for sweep skip summaries ("skipped: 1 (stalled)").
   The Solver_failure messages below all start with the status word. *)
let short_reason = function
  | Infeasible _ -> "infeasible"
  | Timed_out _ -> "timed out"
  | Solver_failure msg ->
    if String.length msg >= 15 && String.sub msg 0 15 = "iteration limit" then
      "iteration limit"
    else if String.length msg >= 7 && String.sub msg 0 7 = "stalled" then
      "stalled"
    else if String.length msg >= 9 && String.sub msg 0 9 = "unbounded" then
      "unbounded"
    else if String.length msg >= 8 && String.sub msg 0 8 = "uncaught" then
      "exception"
    else "failure"

let round_budget = Rounding.round_budget
let round_capacity = Rounding.round_capacity

let rounded_objective_of cfg (mapped : Config.mapped) =
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

(* The [bad_round] fault: corrupt the rounded solution — one budget
   down a granule (or, lacking tasks, one capacity down a container) —
   so tests can pin the exact-certification refutation path against a
   mapping that is wrong by construction. *)
let corrupt_rounding cfg (mapped : Config.mapped) =
  match Config.all_tasks cfg with
  | w :: _ ->
    let victim = Config.task_id w in
    let bad = mapped.Config.budget w -. Config.granularity cfg in
    {
      mapped with
      Config.budget =
        (fun w' ->
          if Config.task_id w' = victim then bad else mapped.Config.budget w');
    }
  | [] -> begin
    match Config.all_buffers cfg with
    | b :: _ ->
      let victim = Config.buffer_id b in
      let bad = mapped.Config.capacity b - 1 in
      {
        mapped with
        Config.capacity =
          (fun b' ->
            if Config.buffer_id b' = victim then bad
            else mapped.Config.capacity b');
      }
    | [] -> mapped
  end

(* Round and certify an Optimal continuous point.  The exact
   certificate is the one verdict: it is always computed and returned,
   and a *recovered* solve whose mapping it refutes is turned into an
   error rather than silently returned. *)
let finish_optimal cfg ~policy ~obs builder result trace stats =
  let continuous = Socp_builder.extract cfg builder result in
  let granularity = Config.granularity cfg in
  (* [all_tasks]/[all_buffers] list the dense ids in ascending order, so
     slot [i] of each array belongs to id [i]. *)
  let tasks = Array.of_list (Config.all_tasks cfg)
  and buffers = Array.of_list (Config.all_buffers cfg) in
  let certify mapped =
    Obs.Ctx.with_span obs "certify" (fun () -> Certify.check cfg mapped)
  in
  let mapped_with eps =
    let budgets =
      Array.map
        (fun w ->
          Rounding.round_budget_eps ~eps ~granularity
            (continuous.Socp_builder.budget w))
        tasks
    in
    let capacities =
      Array.map
        (fun b ->
          Rounding.round_capacity_eps ~eps
            ~initial_tokens:(Config.initial_tokens cfg b)
            (continuous.Socp_builder.space b))
        buffers
    in
    {
      Config.budget = (fun w -> budgets.(Config.task_id w));
      Config.capacity = (fun b -> capacities.(Config.buffer_id b));
    }
  in
  match
    (* Snap near-grid values first and keep them iff they certify;
       otherwise (the optimum genuinely sits past a grid point) fall
       back to the strictly conservative rounding. *)
    let mapped, certificate =
      let snapped = mapped_with Rounding.round_eps in
      let c = certify snapped in
      if Certify.certified c then (snapped, c)
      else
        let strict = mapped_with 0.0 in
        (strict, certify strict)
    in
    if Fault.corrupts_rounding policy.Recovery.fault then begin
      (match obs with
      | None -> ()
      | Some o ->
        Obs.Ctx.emit o
          (Obs.Trace.Fault_injected { kind = "bad_round"; attempt = 1 }));
      let bad = corrupt_rounding cfg mapped in
      (bad, certify bad)
    end
    else (mapped, certificate)
  with
  | exception Rounding.Non_finite { what; value } ->
    Error
      (Solver_failure
         (Printf.sprintf
            "non-finite %s %h emitted by the solver; rounding refused" what
            value))
  | mapped, certificate ->
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
    if Recovery.recovered trace && not (Certify.certified certificate) then
      Error
        (Solver_failure
           (Format.asprintf
              "stalled recovery produced an uncertifiable mapping (%s) after \
               %d attempt(s) (%a)"
              (Certify.summary certificate)
              (Recovery.attempts trace) Recovery.pp_trace trace))
    else
      Ok
        {
          mapped;
          continuous;
          objective = continuous.Socp_builder.objective;
          rounded_objective = rounded_objective_of cfg mapped;
          certificate;
          recovery = trace;
          stats;
        }

(* Last rung of the ladder: when every cone-solver attempt stalled,
   restate the problem on the simplex path — Fair_share budgets
   plus the phase-2 buffer LP of the two-phase baseline.  The result is
   not the joint optimum, but {!Two_phase.budget_first} returns only a
   certified mapping, which beats returning nothing.  The synthesized
   [continuous] point reports the fallback's own (rounded) values. *)
let fallback_lp cfg ~obs trace stats final_status =
  let attempt_no = Recovery.attempts trace + 1 in
  (match obs with
  | None -> ()
  | Some o ->
    Obs.Ctx.emit o
      (Obs.Trace.Rung_enter { attempt = attempt_no; stage = "fallback-lp" }));
  let exit_rung status =
    match obs with
    | None -> ()
    | Some o ->
      Obs.Ctx.emit o
        (Obs.Trace.Rung_exit
           { attempt = attempt_no; stage = "fallback-lp"; status; fault = None })
  in
  match Two_phase.budget_first ~policy:Two_phase.Fair_share ?obs cfg with
  | Error e ->
    exit_rung "failed";
    Error
      (Solver_failure
         (Format.asprintf
            "%a after %d attempt(s) (%a); fallback LP also failed: %a"
            Socp.pp_status final_status (Recovery.attempts trace)
            Recovery.pp_trace trace Two_phase.pp_error e))
  | Ok tp ->
    exit_rung "recovered (exact simplex)";
    let mapped = tp.Two_phase.mapped in
    let attempt =
      {
        Recovery.stage = Recovery.Fallback_lp;
        status = "recovered (exact simplex)";
        iterations = 0;
        time_s = 0.0;
      }
    in
    let continuous =
      {
        Socp_builder.budget = (fun w -> mapped.Config.budget w);
        (* λ is the reciprocal surrogate of Constraint (8), λ·β′ ≥ 1. *)
        lambda = (fun w -> 1.0 /. mapped.Config.budget w);
        space =
          (fun b ->
            float_of_int (mapped.Config.capacity b - Config.initial_tokens cfg b));
        capacity = (fun b -> float_of_int (mapped.Config.capacity b));
        objective = tp.Two_phase.objective;
      }
    in
    Ok
      {
        mapped;
        continuous;
        objective = tp.Two_phase.objective;
        rounded_objective = tp.Two_phase.objective;
        certificate = tp.Two_phase.certificate;
        recovery = trace @ [ attempt ];
        stats = { stats with attempts = stats.attempts + 1 };
      }

let solve ?params ?policy ?obs cfg =
  let policy =
    match policy with Some p -> p | None -> Recovery.default_policy ()
  in
  (* An explicit [?obs] wins; otherwise keep whatever already rides in
     the params (threaded there by an enclosing sweep). *)
  let obs = Durability.obs_of params obs in
  let params = Durability.params ?obs params in
  let builder = Socp_builder.build cfg in
  let t0 = Unix.gettimeofday () in
  let result, trace =
    Obs.Ctx.with_span obs "socp" (fun () ->
        Recovery.solve_model ~policy ?params builder.Socp_builder.model)
  in
  let elapsed = Unix.gettimeofday () -. t0 in
  let stats =
    {
      variables = Model.num_variables builder.Socp_builder.model;
      rows = Model.num_rows builder.Socp_builder.model;
      iterations = result.Model.raw.Socp.iterations;
      attempts = Recovery.attempts trace;
      solve_time_s = elapsed;
      kkt_fallbacks = result.Model.raw.Socp.kkt_fallbacks;
    }
  in
  match result.Model.status with
  | Socp.Primal_infeasible ->
    Error
      (Infeasible
         "no budget and buffer assignment satisfies the throughput \
          requirement under the given processor, memory and capacity bounds")
  | Socp.Dual_infeasible ->
    (* Objective (5) has non-negative weights over non-negative
       variables, so unboundedness indicates a modelling error. *)
    Error (Solver_failure "unbounded cone program (dual infeasible)")
  | Socp.Timed_out ->
    (* The deadline that stopped the cone solve is already blown; the
       simplex fallback would only blow it further.  No retry, no
       fallback — the sweep layer decides whether a resume re-solves. *)
    Error
      (Timed_out
         (Format.asprintf "deadline expired after %d attempt(s) (%a)"
            (Recovery.attempts trace) Recovery.pp_trace trace))
  | Socp.Iteration_limit | Socp.Stalled ->
    (* The whole cone ladder failed; try the simplex restatement
       unless the fault plan covers that attempt too. *)
    let fallback_attempt = Recovery.attempts trace + 1 in
    if Fault.covers policy.Recovery.fault ~attempt:fallback_attempt then
      Error
        (Solver_failure
           (Format.asprintf
              "%a after %d attempt(s) (%a); fallback LP disabled by fault \
               plan"
              Socp.pp_status result.Model.status (Recovery.attempts trace)
              Recovery.pp_trace trace))
    else fallback_lp cfg ~obs trace stats result.Model.status
  | Socp.Optimal ->
    Obs.Ctx.with_span obs "finish" (fun () ->
        finish_optimal cfg ~policy ~obs builder result trace stats)
