module Config = Taskgraph.Config
module Lp = Simplex.Lp
module Model = Conic.Model
module Socp = Conic.Socp
module Rat = Exact.Rat

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

(* The least granule multiple β with ̺·χ/β ≤ µ in the exact rationals
   of the float inputs, which {!Certify} reads: a float quotient, or a
   snap to a nearby grid point, can land a granule short.  The search
   starts a granule below the float estimate, which float error cannot
   put past the answer. *)
let min_budget cfg =
  let g = Config.granularity cfg in
  let least w =
    let repl = Config.replenishment cfg (Config.task_proc cfg w)
    and chi = Config.wcet cfg w
    and mu = Config.period cfg (Config.task_graph cfg w) in
    let need = Rat.(div (mul (of_float repl) (of_float chi)) (of_float mu)) in
    let rec up q =
      let beta = g *. float_of_int q in
      if Rat.compare (Rat.of_float beta) need >= 0 then beta else up (q + 1)
    in
    up (Int.max 1 (int_of_float (ceil (repl *. chi /. mu /. g)) - 1))
  in
  let budgets = Array.of_list (List.map least (Config.all_tasks cfg)) in
  fun w -> budgets.(Config.task_id w)

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
(* The simplex LP of Algorithm 1                                       *)
(* ------------------------------------------------------------------ *)

(* Variables: per task s(v1), s(v2) and, when free, β; then δ′ per
   buffer.  Rows: (6) per task, the data and space queues per buffer,
   (9), (10).  Both orders are part of the simplex's float result. *)
let linear_program cfg ~duration ~budget =
  let p = Lp.create () in
  let var ?(lb = Some 0.0) ?(ub = None) name =
    Lp.add_variable p ~name ~lb ~ub ()
  in
  let row terms rel rhs = ignore (Lp.add_constraint p terms rel rhs) in
  let tasks = Config.all_tasks cfg and buffers = Config.all_buffers cfg in
  (* Slot [i] holds task (buffer) id [i]: both lists are in id order. *)
  let tvar =
    Array.of_list
      (List.map
         (fun w ->
           let n = Config.task_name cfg w in
           let s1 = var ~lb:None ("s." ^ n ^ ".1") in
           let s2 = var ~lb:None ("s." ^ n ^ ".2") in
           match budget with
           | `Fixed _ -> (s1, s2, None)
           | `Free -> (s1, s2, Some (var ("beta." ^ n))))
         tasks)
  and dvar =
    Array.of_list
      (List.map
         (fun b ->
           let room cap = float_of_int (cap - Config.initial_tokens cfg b) in
           var ~ub:(Option.map room (Config.max_capacity cfg b))
             ("delta'." ^ Config.buffer_name cfg b))
         buffers)
  in
  let sv1 w = let v, _, _ = tvar.(Config.task_id w) in v
  and sv2 w = let _, v, _ = tvar.(Config.task_id w) in v
  and bv w = let _, _, v = tvar.(Config.task_id w) in Option.get v
  and dv b = dvar.(Config.buffer_id b) in
  List.iter
    (fun w ->
      let repl = Config.replenishment cfg (Config.task_proc cfg w) in
      match budget with
      | `Fixed beta ->
        (* (6): s(v2) − s(v1) ≥ ρ(v1) = ̺ − β. *)
        row [ (1.0, sv2 w); (-1.0, sv1 w) ] Lp.Ge (repl -. beta w);
        (* Self-loop: ρ(v2) ≤ µ — no variables, a constant infeasible row. *)
        if duration w > Config.period cfg (Config.task_graph cfg w) +. 1e-9
        then row [] Lp.Ge 1.0
      | `Free ->
        (* (6) with β as a variable: s(v2) − s(v1) + β ≥ ̺. *)
        row [ (1.0, sv2 w); (-1.0, sv1 w); (1.0, bv w) ] Lp.Ge repl)
    tasks;
  List.iter
    (fun b ->
      let wa = Config.buffer_src cfg b and wb = Config.buffer_dst cfg b in
      let mu = Config.period cfg (Config.task_graph cfg wa) in
      let iota = float_of_int (Config.initial_tokens cfg b) in
      (* Data queue: s(b1) − s(a2) ≥ ρ(a2) − ι·µ. *)
      row [ (1.0, sv1 wb); (-1.0, sv2 wa) ] Lp.Ge (duration wa -. (iota *. mu));
      (* Space queue: s(a1) − s(b2) + µ·δ′ ≥ ρ(b2). *)
      row [ (1.0, sv1 wa); (-1.0, sv2 wb); (mu, dv b) ] Lp.Ge (duration wb))
    buffers;
  let weighed_budgets weight ws =
    match budget with
    | `Fixed _ -> []
    | `Free -> List.map (fun w -> (weight w, bv w)) ws
  in
  (* (9), one granule per task held back for rounding; no row at fixed β. *)
  List.iter
    (fun proc ->
      match weighed_budgets (fun _ -> 1.0) (Config.tasks_on cfg proc) with
      | [] -> ()
      | terms ->
        row terms Lp.Le
          (Config.replenishment cfg proc -. Config.overhead cfg proc
          -. (float_of_int (List.length terms) *. Config.granularity cfg)))
    (Config.processors cfg);
  List.iter
    (fun mem ->
      let bufs = Config.buffers_in cfg mem in
      let size b = Config.container_size cfg b in
      let consumed =
        List.fold_left
          (fun acc b -> acc + (size b * (Config.initial_tokens cfg b + 1)))
          0 bufs
      in
      if bufs <> [] then
        row
          (List.map (fun b -> (float_of_int (size b), dv b)) bufs)
          Lp.Le
          (float_of_int (Config.memory_capacity cfg mem - consumed)))
    (Config.memories cfg);
  Lp.set_objective p
    (weighed_budgets (Config.task_weight cfg) tasks
    @ List.map
        (fun b ->
          ( Config.buffer_weight cfg b
            *. float_of_int (Config.container_size cfg b),
            dv b ))
        buffers);
  match (Lp.solve p, budget) with
  | Lp.Infeasible, _ -> Error `Infeasible
  | Lp.Unbounded, _ -> Error `Unbounded
  | Lp.Optimal { value; _ }, `Fixed beta -> Ok (beta, fun b -> value (dv b))
  | Lp.Optimal { value; _ }, `Free ->
    Ok ((fun w -> value (bv w)), fun b -> value (dv b))

(* ------------------------------------------------------------------ *)
(* Phase 2: buffer sizing at fixed budgets — a pure LP                 *)
(* ------------------------------------------------------------------ *)

(* With β fixed, ρ(v1) = ̺ − β and ρ(v2) = ̺·χ/β are constants. *)
let buffer_lp cfg ~budget =
  let duration w =
    Config.replenishment cfg (Config.task_proc cfg w)
    *. Config.wcet cfg w /. budget w
  in
  match linear_program cfg ~duration ~budget:(`Fixed budget) with
  | Error `Infeasible ->
    Error
      (Infeasible
         "buffer-sizing LP infeasible for the phase-1 budgets (a joint \
          assignment may still exist)")
  | Error `Unbounded -> Error (Solver_failure "buffer-sizing LP unbounded")
  | Ok (_, space) ->
    Ok
      (fun b ->
        Rounding.round_capacity
          ~initial_tokens:(Config.initial_tokens cfg b)
          (space b))

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

let non_finite what value =
  Printf.sprintf "non-finite %s %h emitted by the solver; rounding refused"
    what value

let settle ?obs f =
  match f () with
  | exception Rounding.Non_finite { what; value } ->
    Error (non_finite what value)
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
      Error (Solver_failure (non_finite what value))
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
  if max_rounds < 1 then invalid_arg "Two_phase.alternating: max_rounds < 1";
  let budget0 = budgets_of_policy cfg Fair_share in
  let* () = check_budgets cfg budget0 in
  (* One phase pair: the buffer LP at [budget], then the budgets at the
     capacities it chose. *)
  let pair budget =
    let* capacity = buffer_lp cfg ~budget in
    let* budget = budgets_at_fixed_capacity cfg ~capacity in
    let mapped = { Config.budget; Config.capacity } in
    Ok (mapped, objective_of cfg mapped)
  in
  (* Pair [k] starts from the best mapping's budgets; a failed or
     non-improving pair ends the descent at the best so far. *)
  let rec descend ((best, best_obj, _) as kept) k =
    if k >= max_rounds then kept
    else
      match pair best.Config.budget with
      | Ok (mapped, obj) when obj < best_obj -. 1e-6 ->
        descend (mapped, obj, (2 * k) + 2) (k + 1)
      | Ok _ | Error _ -> kept
  in
  let* mapped, obj = pair budget0 in
  let mapped, objective, rounds = descend (mapped, obj, 2) 1 in
  certified_or_error "alternating result" mapped (Certify.check cfg mapped)
    ~objective:(fun () -> objective)
    ~rounds

let buffer_sizing_lp = buffer_lp
