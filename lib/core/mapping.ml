module Config = Taskgraph.Config
module Socp = Conic.Socp
module Model = Conic.Model
module Fault = Robust.Fault

type stage = Base | Relaxed | Fallback_lp
type attempt = { stage : stage; status : string }

let stage_name = function
  | Base -> "base"
  | Relaxed -> "relaxed"
  | Fallback_lp -> "fallback-lp"

let recovered = function [] | [ { stage = Base; _ } ] -> false | _ -> true

let pp_recovery ppf trace =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "; ")
    (fun ppf a -> Format.fprintf ppf "%s: %s" (stage_name a.stage) a.status)
    ppf trace

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
  recovery : attempt list;
  stats : stats;
  warm : Socp.warm option;
}

type failure =
  | Stalled | Iteration_limit | Unbounded
  | Uncertifiable | Non_finite | Exception

type error =
  | Infeasible of string
  | Solver_failure of { cause : failure; detail : string }
  | Timed_out of string

(* The one table of failure labels: skip summaries print them and
   journals record them. *)
let failures =
  [ (Stalled, "stalled"); (Iteration_limit, "iteration limit");
    (Unbounded, "unbounded"); (Uncertifiable, "uncertifiable");
    (Non_finite, "non-finite"); (Exception, "exception") ]

let failure_of_name name =
  List.find_map (fun (c, n) -> if n = name then Some c else None) failures

let label = function
  | Infeasible _ -> "infeasible"
  | Timed_out _ -> "timed out"
  | Solver_failure { cause; _ } -> List.assoc cause failures

let fail cause detail = Error (Solver_failure { cause; detail })

let of_exn e = fail Exception ("uncaught exception: " ^ Printexc.to_string e)

let skipped outcome points =
  List.filter_map
    (fun p ->
      match outcome p with
      | _, (Ok _ | Error (Infeasible _)) -> None
      | key, Error e -> Some (key, label e))
    points

let pp_error ppf = function
  | Infeasible msg -> Format.fprintf ppf "infeasible: %s" msg
  | Solver_failure { detail; _ } ->
    Format.fprintf ppf "solver failure: %s" detail
  | Timed_out msg -> Format.fprintf ppf "timed out: %s" msg

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

(* The one rounding step of the flow: snap near-grid values first and
   keep them iff they certify; otherwise (the point genuinely sits past
   a grid point) fall back to the strictly conservative rounding.  The
   [bad_round] fault corrupts whichever mapping that picks. *)
let round_and_certify ~fault ?obs cfg ~budget ~space =
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
        (fun w -> Rounding.round_budget_eps ~eps ~granularity (budget w))
        tasks
    in
    let capacities =
      Array.map
        (fun b ->
          Rounding.round_capacity_eps ~eps
            ~initial_tokens:(Config.initial_tokens cfg b)
            (space b))
        buffers
    in
    {
      Config.budget = (fun w -> budgets.(Config.task_id w));
      Config.capacity = (fun b -> capacities.(Config.buffer_id b));
    }
  in
  Two_phase.settle ?obs @@ fun () ->
  let mapped, certificate =
    let snapped = mapped_with Rounding.round_eps in
    let c = certify snapped in
    if Certify.certified c then (snapped, c)
    else
      let strict = mapped_with 0.0 in
      (strict, certify strict)
  in
  if Fault.corrupts_rounding fault then begin
    (match obs with
    | None -> ()
    | Some o ->
      Obs.Ctx.emit o
        (Obs.Trace.Fault_injected { kind = "bad_round"; attempt = 1 }));
    let bad = corrupt_rounding cfg mapped in
    (bad, certify bad)
  end
  else (mapped, certificate)

(* Round and certify an Optimal continuous point.  The exact
   certificate is the one verdict: it is always computed and returned,
   and a *recovered* solve whose mapping it refutes is turned into an
   error rather than silently returned. *)
let finish_optimal cfg ~fault ~obs builder result trace stats =
  let continuous = Socp_builder.extract cfg builder result in
  match
    round_and_certify ~fault ?obs cfg ~budget:continuous.Socp_builder.budget
      ~space:continuous.Socp_builder.space
  with
  | Error detail -> fail Non_finite detail
  | Ok (mapped, certificate) ->
    if recovered trace && not (Certify.certified certificate) then
      fail Uncertifiable
        (Format.asprintf
           "stalled recovery produced an uncertifiable mapping (%s) after \
            %d attempt(s) (%a)"
           (Certify.summary certificate)
           (List.length trace) pp_recovery trace)
    else
      Ok
        {
          mapped;
          continuous;
          objective = continuous.Socp_builder.objective;
          rounded_objective = Two_phase.objective_of cfg mapped;
          certificate;
          recovery = trace;
          stats;
          warm =
            (let raw = result.Model.raw in
             Some { Socp.wx = raw.Socp.x; ws = raw.Socp.s; wz = raw.Socp.z });
        }

(* The simplex rung's answer as a result.  It is not the joint optimum,
   but {!Two_phase.budget_first} returns only a certified mapping, which
   beats returning nothing.  The synthesized [continuous] point reports
   the fallback's own (rounded) values. *)
let of_fallback cfg (tp : Two_phase.result) trace stats =
  let mapped = tp.Two_phase.mapped in
  let continuous =
    {
      Socp_builder.budget = (fun w -> mapped.Config.budget w);
      (* λ is the reciprocal surrogate of Constraint (8), λ·β′ ≥ 1. *)
      lambda = (fun w -> 1.0 /. mapped.Config.budget w);
      space =
        (fun b ->
          float_of_int
            (mapped.Config.capacity b - Config.initial_tokens cfg b));
      capacity = (fun b -> float_of_int (mapped.Config.capacity b));
      objective = tp.Two_phase.objective;
    }
  in
  {
    mapped;
    continuous;
    objective = tp.Two_phase.objective;
    rounded_objective = tp.Two_phase.objective;
    certificate = tp.Two_phase.certificate;
    recovery = trace;
    stats;
    warm = None;
  }

(* What a rung answers: a cone solve's result, or the simplex
   restatement's. *)
type answer =
  | Cone of Model.result
  | Simplex of (Two_phase.result, Two_phase.error) Stdlib.result

(* The recovery ladder, climbed in this order until a rung answers:
   the caller's parameters; 10× the tolerance and a cold start (a seed
   that steered the base attempt into a stall must not steer the retry
   too); then the problem restated as Fair_share budgets plus the
   phase-2 buffer LP of the two-phase baseline, solved by simplex. *)
let ladder = [ Base; Relaxed; Fallback_lp ]

(* A cone rung that stalls or hits the iteration limit climbs.  Every
   other verdict answers: an infeasibility certificate is a float ray
   of the homogeneous embedding, which a later rung would find again,
   and a deadline that expired on one rung can only be more expired on
   the next. *)
let climbs = function
  | Cone r -> (
    match r.Model.status with
    | Socp.Iteration_limit | Socp.Stalled -> true
    | Socp.Optimal | Socp.Primal_infeasible | Socp.Dual_infeasible
    | Socp.Timed_out ->
      false)
  | Simplex _ -> false

(* Climb [ladder]: each rung emits [Rung_enter], a [Fault_injected]
   marker when the plan covers its attempt, runs, is recorded and emits
   [Rung_exit] — one fired fault, one faulted exit.  A plan that covers
   the simplex rung's attempt disables it, and the last cone answer
   stands.  The cone rungs lead the ladder and share one ["socp"] span,
   which closes before the simplex rung runs.  The answer becomes the
   verdict: [optimal] (in a ["finish"] span) or [fallback] turns a
   rung's answer into the caller's result. *)
let climb ?(params = Socp.default_params) ?deadline ?warm ~fault ?obs cfg
    model ~optimal ~fallback =
  (* [Deadline.none] installs no poll: an unlimited solve keeps a
     hook-free iteration loop. *)
  let deadline = Option.bind deadline Durable.Deadline.check in
  let t0 = Unix.gettimeofday () in
  let emit ev = Option.iter (fun o -> Obs.Ctx.emit o ev) obs in
  let close_socp = ref (Obs.Ctx.open_span obs "socp") in
  let leave_socp () =
    let close = !close_socp in
    close_socp := ignore;
    close ()
  in
  let last_cone = ref None in
  let cone attempt ~tolerance ~warm =
    let params =
      match Fault.inject fault ~attempt with
      | None -> { params with Socp.tolerance }
      | inject -> { params with Socp.tolerance; inject }
    in
    let r = Model.solve ~params ?deadline ?obs ?warm model in
    last_cone := Some r;
    (Cone r, Format.asprintf "%a" Socp.pp_status r.Model.status)
  in
  let run attempt = function
    | Base -> cone attempt ~tolerance:params.Socp.tolerance ~warm
    | Relaxed ->
      cone attempt ~tolerance:(params.Socp.tolerance *. 10.0) ~warm:None
    | Fallback_lp -> (
      match Two_phase.budget_first ~policy:Two_phase.Fair_share ?obs cfg with
      | Ok _ as tp -> (Simplex tp, "recovered (simplex)")
      | Error _ as e -> (Simplex e, "failed"))
  in
  let rung attempt stage =
    let fault =
      if Fault.covers fault ~attempt then
        Option.map (fun p -> Fault.kind_name p.Fault.kind) fault
      else None
    in
    if stage = Fallback_lp then leave_socp ();
    let stage_label = stage_name stage in
    emit (Obs.Trace.Rung_enter { attempt; stage = stage_label });
    Option.iter
      (fun kind -> emit (Obs.Trace.Fault_injected { kind; attempt }))
      fault;
    let answer, status = run attempt stage in
    emit (Obs.Trace.Rung_exit { attempt; stage = stage_label; status; fault });
    (answer, { stage; status })
  in
  let rec go attempt trace = function
    | [] -> assert false
    | stage :: rest -> (
      let answer, att = rung attempt stage in
      let trace = att :: trace in
      let next = attempt + 1 in
      match rest with
      | Fallback_lp :: _ when Fault.covers fault ~attempt:next ->
        (answer, List.rev trace)
      | _ :: _ when climbs answer -> go next trace rest
      | _ -> (answer, List.rev trace))
  in
  let answer, trace =
    Fun.protect ~finally:leave_socp (fun () -> go 1 [] ladder)
  in
  let last = Option.get !last_cone in
  let stats =
    {
      variables = Model.num_variables model;
      rows = Model.num_rows model;
      iterations = last.Model.raw.Socp.iterations;
      attempts = List.length trace;
      solve_time_s = Unix.gettimeofday () -. t0;
      kkt_fallbacks = last.Model.raw.Socp.kkt_fallbacks;
    }
  in
  (* Only a stalled or iteration-limited cone rung leaves the ladder
     without an answer; the message names the cone attempts only. *)
  let failure detail =
    let cone = List.filter (fun a -> a.stage <> Fallback_lp) trace in
    fail
      (if last.Model.status = Socp.Iteration_limit then Iteration_limit
       else Stalled)
      (Format.asprintf "%a after %d attempt(s) (%a); %s" Socp.pp_status
         last.Model.status (List.length cone) pp_recovery cone detail)
  in
  match answer with
  | Cone r -> (
    match r.Model.status with
    | Socp.Optimal ->
      Obs.Ctx.with_span obs "finish" (fun () -> optimal r trace stats)
    | Socp.Primal_infeasible ->
      Error
        (Infeasible
           "no budget and buffer assignment satisfies the throughput \
            requirement under the given processor, memory and capacity \
            bounds")
    | Socp.Dual_infeasible ->
      (* Objective (5) has non-negative weights over non-negative
         variables, so unboundedness indicates a modelling error. *)
      fail Unbounded "unbounded cone program (dual infeasible)"
    | Socp.Timed_out ->
      (* The deadline that stopped the cone solve is already blown; the
         sweep layer decides whether a resume re-solves. *)
      Error
        (Timed_out
           (Format.asprintf "deadline expired after %d attempt(s) (%a)"
              (List.length trace) pp_recovery trace))
    | Socp.Iteration_limit | Socp.Stalled ->
      failure "fallback LP disabled by fault plan")
  | Simplex (Error e) ->
    failure
      (Format.asprintf "fallback LP also failed: %a" Two_phase.pp_error e)
  | Simplex (Ok tp) -> fallback tp trace stats

let capped_below_tokens cfg =
  List.find_opt
    (fun b ->
      match Config.max_capacity cfg b with
      | Some cap -> cap < Config.initial_tokens cfg b
      | None -> false)
    (Config.all_buffers cfg)

let solve ?params ?deadline ?warm ?fault ?obs cfg =
  match capped_below_tokens cfg with
  | Some b ->
    (* No capacity can hold the initial tokens: infeasible at every
       period, which the cone solver could only stall on. *)
    Error
      (Infeasible
         (Printf.sprintf "buffer %s holds %d initial tokens, above its cap %d"
            (Config.buffer_name cfg b)
            (Config.initial_tokens cfg b)
            (Option.get (Config.max_capacity cfg b))))
  | None ->
    let fault = match fault with Some f -> f | None -> Fault.of_env () in
    let builder = Socp_builder.build cfg in
    climb ?params ?deadline ?warm ~fault ?obs cfg builder.Socp_builder.model
      ~optimal:(finish_optimal cfg ~fault ~obs builder)
      ~fallback:(fun tp trace stats -> Ok (of_fallback cfg tp trace stats))
