module Socp = Conic.Socp
module Model = Conic.Model

type stage = Base | Relaxed | Deep | Jittered | Fallback_lp

type attempt = {
  stage : stage;
  status : string;
  iterations : int;
  time_s : float;
}

type trace = attempt list

let stage_name = function
  | Base -> "base"
  | Relaxed -> "relaxed"
  | Deep -> "deep"
  | Jittered -> "jittered"
  | Fallback_lp -> "fallback-lp"

let attempts = List.length
let recovered = function [] | [ { stage = Base; _ } ] -> false | _ -> true

let pp_trace ppf trace =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "; ")
    (fun ppf a -> Format.fprintf ppf "%s: %s" (stage_name a.stage) a.status)
    ppf trace

type policy = { fault : Fault.plan option }

let default_policy () = { fault = Fault.of_env () }

let with_fault = function
  | None -> default_policy ()
  | Some plan -> { fault = Some plan }

let rung_params (base : Socp.params) = function
  | Base | Fallback_lp -> base
  (* Every rung past [Base] drops the warm-start point: a seed that
     steered the base attempt into a stall must not steer the retry
     too (the cold start is the known-good trajectory). *)
  | Relaxed ->
    {
      base with
      Socp.feastol = base.Socp.feastol *. 10.0;
      abstol = base.Socp.abstol *. 10.0;
      reltol = base.Socp.reltol *. 10.0;
      warm = None;
    }
  | Deep -> { base with Socp.max_iter = base.Socp.max_iter * 4; warm = None }
  | Jittered ->
    {
      base with
      Socp.max_iter = base.Socp.max_iter * 4;
      feastol = base.Socp.feastol *. 10.0;
      abstol = base.Socp.abstol *. 10.0;
      reltol = base.Socp.reltol *. 10.0;
      (* A shorter fraction-to-boundary step and forced re-equilibration
         push the iteration onto a different trajectory entirely. *)
      step_fraction = 0.9;
      presolve = Socp.Presolve_force;
      warm = None;
    }

let cone_stages = [ Base; Relaxed; Deep; Jittered ]

let solve_model ?policy ?(params = Socp.default_params) m =
  let policy = match policy with Some p -> p | None -> default_policy () in
  let run attempt_no stage =
    let p = rung_params params stage in
    let p =
      match Fault.inject policy.fault ~attempt:attempt_no with
      | None -> p
      | inject -> { p with Socp.inject }
    in
    (* The fault label carried by the rung-exit event (and the
       [Fault_injected] marker): the trace must agree exactly with the
       plan — one fired fault, one matching event. *)
    let fault =
      if Fault.covers policy.fault ~attempt:attempt_no then
        Option.map (fun pl -> Fault.kind_name pl.Fault.kind) policy.fault
      else None
    in
    (match p.Socp.obs with
    | None -> ()
    | Some o ->
      Obs.Ctx.emit o
        (Obs.Trace.Rung_enter { attempt = attempt_no; stage = stage_name stage });
      match fault with
      | None -> ()
      | Some kind ->
        Obs.Ctx.emit o (Obs.Trace.Fault_injected { kind; attempt = attempt_no }));
    let t0 = Unix.gettimeofday () in
    let r = Model.solve ~params:p m in
    let att =
      {
        stage;
        status = Format.asprintf "%a" Socp.pp_status r.Model.status;
        iterations = r.Model.raw.Socp.iterations;
        time_s = Unix.gettimeofday () -. t0;
      }
    in
    (match p.Socp.obs with
    | None -> ()
    | Some o ->
      Obs.Ctx.emit o
        (Obs.Trace.Rung_exit
           {
             attempt = attempt_no;
             stage = stage_name stage;
             status = att.status;
             fault;
           }));
    (r, att)
  in
  let rec climb attempt_no trace = function
    | [] -> assert false
    | stage :: rest ->
      let r, att = run attempt_no stage in
      let trace = att :: trace in
      let final = List.rev trace in
      (match r.Model.status with
      (* An infeasibility certificate is a float ray of the
         homogeneous embedding, accepted within the rung's tolerances;
         a later rung would run the same embedding, so retrying could
         only burn time to reach the same answer.  A timed-out attempt
         is final too: the deadline that expired on this rung can only
         be more expired on the next. *)
      | Socp.Optimal | Socp.Primal_infeasible | Socp.Dual_infeasible
      | Socp.Timed_out ->
        (r, final)
      | Socp.Iteration_limit | Socp.Stalled ->
        if rest = [] then (r, final) else climb (attempt_no + 1) trace rest)
  in
  climb 1 [] cone_stages
