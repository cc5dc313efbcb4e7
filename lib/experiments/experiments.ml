module Config = Taskgraph.Config
module Mapping = Budgetbuf.Mapping
module Socp_builder = Budgetbuf.Socp_builder
module Two_phase = Budgetbuf.Two_phase

let caps_1_10 = List.init 10 (fun i -> i + 1)

let solve_exn cfg =
  match Mapping.solve cfg with
  | Ok r -> r
  | Error e -> Fmt.failwith "solve failed: %a" Mapping.pp_error e

let header ppf title = Format.fprintf ppf "@.=== %s ===@.@." title

let t1_budget_at cap =
  let cfg = Workloads.Gen.paper_t1 () in
  List.iter
    (fun b -> Config.set_max_capacity cfg b (Some cap))
    (Config.all_buffers cfg);
  let r = solve_exn cfg in
  r.Mapping.continuous.Socp_builder.budget (Config.find_task cfg "wa")

let t1_analytic d =
  let d = float_of_int d in
  Float.max 4.0
    (((80.0 -. (10.0 *. d)) +. sqrt ((((10.0 *. d) -. 80.0) ** 2.0) +. 640.0))
    /. 4.0)

let fig2a ppf =
  header ppf "Figure 2(a): budget / buffer-size trade-off on T1";
  Format.fprintf ppf "  %-9s %-18s %-18s %-10s@." "capacity"
    "budget [Mcycles]" "paper (analytic)" "rel.err";
  List.iter
    (fun d ->
      let beta = t1_budget_at d and ana = t1_analytic d in
      Format.fprintf ppf "  %-9d %-18.4f %-18.4f %-10.2e@." d beta ana
        (Float.abs (beta -. ana) /. ana))
    caps_1_10

let fig2b ppf =
  header ppf "Figure 2(b): budget reduction per extra container on T1";
  Format.fprintf ppf "  %-9s %-22s %-22s@." "capacity"
    "delta budget [Mcycles]" "paper (analytic)";
  let betas = List.map (fun d -> (d, t1_budget_at d)) caps_1_10 in
  let rec deltas = function
    | (_, b1) :: ((d2, b2) :: _ as rest) ->
      (d2, b1 -. b2, t1_analytic (d2 - 1) -. t1_analytic d2) :: deltas rest
    | [ _ ] | [] -> []
  in
  List.iter
    (fun (d, delta, ana) ->
      Format.fprintf ppf "  %-9d %-22.4f %-22.4f@." d delta ana)
    (deltas betas)

let t2_budgets_at cap =
  let cfg = Workloads.Gen.paper_t2 () in
  List.iter
    (fun b -> Config.set_max_capacity cfg b (Some cap))
    (Config.all_buffers cfg);
  let r = solve_exn cfg in
  let budget name =
    r.Mapping.continuous.Socp_builder.budget (Config.find_task cfg name)
  in
  (budget "wa", budget "wb", budget "wc")

let fig3 ppf =
  header ppf "Figure 3: topology dependence on the 3-task chain T2";
  Format.fprintf ppf "  %-9s %-14s %-14s %-14s@." "capacity" "beta(wa)"
    "beta(wb)" "beta(wc)";
  List.iter
    (fun d ->
      let a, b, c = t2_budgets_at d in
      Format.fprintf ppf "  %-9d %-14.3f %-14.3f %-14.3f@." d a b c)
    caps_1_10;
  Format.fprintf ppf
    "@.  shape check: beta(wb) >= beta(wa) = beta(wc) at every capacity@."

let runtime ppf =
  header ppf "Run-time of the full analysis (build + solve + round + verify)";
  Format.fprintf ppf "  %-22s %-8s %-8s %-12s %-10s %-9s@." "instance" "tasks"
    "rows" "time [ms]" "iters" "attempts";
  let time_once name cfg =
    match Mapping.solve cfg with
    | Error e -> Format.fprintf ppf "  %-22s %a@." name Mapping.pp_error e
    | Ok r ->
      Format.fprintf ppf "  %-22s %-8d %-8d %-12.2f %-10d %-9d@." name
        (List.length (Config.all_tasks cfg))
        r.Mapping.stats.Mapping.rows
        (1000.0 *. r.Mapping.stats.Mapping.solve_time_s)
        r.Mapping.stats.Mapping.iterations r.Mapping.stats.Mapping.attempts
  in
  time_once "paper T1" (Workloads.Gen.paper_t1 ());
  time_once "paper T2" (Workloads.Gen.paper_t2 ());
  List.iter
    (fun n ->
      time_once (Printf.sprintf "chain n=%d" n) (Workloads.Gen.chain ~n ()))
    [ 4; 8; 16; 32 ];
  time_once "multi-job 3x3 on 3"
    (Workloads.Gen.multi_job (Workloads.Rng.create 1L) ~jobs:3 ~tasks_per_job:3
       ~procs:3 ());
  time_once "mesh 3x3" (Workloads.Gen.mesh ~rows:3 ~cols:3 ());
  time_once "binary tree d=3" (Workloads.Gen.binary_tree ~depth:3 ())

let baselines ppf =
  header ppf "Joint flow vs two-phase baselines (T1 with capacity cap)";
  Format.fprintf ppf "  %-5s %-14s %-16s %-16s %-16s@." "cap" "joint"
    "budget-first/min" "budget-first/fair" "buffer-first";
  let cell = function
    | Ok (r : Two_phase.result) -> Printf.sprintf "%.3f" r.Two_phase.objective
    | Error (Two_phase.Infeasible _) -> "FALSE-NEGATIVE"
    | Error (Two_phase.Solver_failure _) -> "solver-failure"
  in
  List.iter
    (fun cap ->
      let cfg = Workloads.Gen.paper_t1 () in
      List.iter
        (fun b -> Config.set_max_capacity cfg b (Some cap))
        (Config.all_buffers cfg);
      let joint =
        match Mapping.solve cfg with
        | Ok r -> Printf.sprintf "%.3f" r.Mapping.rounded_objective
        | Error _ -> "infeasible"
      in
      Format.fprintf ppf "  %-5d %-14s %-16s %-16s %-16s@." cap joint
        (cell (Two_phase.budget_first ~policy:Two_phase.Min_budget cfg))
        (cell (Two_phase.budget_first ~policy:Two_phase.Fair_share cfg))
        (cell (Two_phase.buffer_first ~policy:Two_phase.At_bound cfg)))
    [ 2; 4; 6; 8; 10 ];
  Format.fprintf ppf
    "@.  min-budget phase 1 cannot see the buffer bound and reports@.\
    \  infeasible for caps < 10 although the joint program solves them:@.\
    \  these are the false negatives the paper eliminates.@."

let rounding ppf =
  header ppf "Ablation: cost of the conservative rounding (T1, cap 5)";
  Format.fprintf ppf "  %-13s %-22s %-20s %-12s@." "granularity"
    "continuous objective" "rounded objective" "overhead";
  List.iter
    (fun g ->
      let cfg = Config.create ~granularity:g () in
      let p1 = Config.add_processor cfg ~name:"p1" ~replenishment:40.0 () in
      let p2 = Config.add_processor cfg ~name:"p2" ~replenishment:40.0 () in
      let m = Config.add_memory cfg ~name:"m0" ~capacity:1000 in
      let gr = Config.add_graph cfg ~name:"t1" ~period:10.0 () in
      let wa = Config.add_task cfg gr ~name:"wa" ~proc:p1 ~wcet:1.0 () in
      let wb = Config.add_task cfg gr ~name:"wb" ~proc:p2 ~wcet:1.0 () in
      ignore
        (Config.add_buffer cfg gr ~name:"bab" ~src:wa ~dst:wb ~memory:m
           ~weight:0.001 ~max_capacity:5 ());
      match Mapping.solve cfg with
      | Error e -> Format.fprintf ppf "  %-13g %a@." g Mapping.pp_error e
      | Ok r ->
        Format.fprintf ppf "  %-13g %-22.4f %-20.4f %-11.2f%%@." g
          r.Mapping.objective r.Mapping.rounded_objective
          (100.0
          *. (r.Mapping.rounded_objective -. r.Mapping.objective)
          /. r.Mapping.objective))
    [ 1.0; 2.0; 4.0 ]

let lp_cross_check ppf =
  header ppf "Ablation: simplex vs interior-point on the phase-2 buffer LP";
  Format.fprintf ppf "  %-10s %-20s %-20s@." "chain n" "simplex capacities"
    "cone-solver capacities";
  List.iter
    (fun n ->
      let cfg = Workloads.Gen.chain ~n () in
      (* Budgets pinned to the same mid-range value for both solvers:
         buffer sizing is then a pure LP, solved once by the simplex
         and once by the interior-point method. *)
      let budget _ = 12.0 in
      let show cap =
        String.concat ","
          (List.map
             (fun b -> string_of_int (cap b))
             (Config.all_buffers cfg))
      in
      let simplex_caps =
        match Two_phase.buffer_sizing_lp cfg ~budget with
        | Ok cap -> show cap
        | Error e -> Format.asprintf "%a" Two_phase.pp_error e
      in
      let ipm_caps =
        let builder = Socp_builder.build cfg in
        let m = builder.Socp_builder.model in
        List.iter
          (fun w ->
            Conic.Model.fix m (builder.Socp_builder.budget_var w) (budget w);
            (* λ = 1/β is forced once β is pinned. *)
            Conic.Model.fix m
              (builder.Socp_builder.lambda_var w)
              (1.0 /. budget w))
          (Config.all_tasks cfg);
        let result = Conic.Model.solve m in
        match result.Conic.Model.status with
        | Conic.Socp.Optimal ->
          let c = Socp_builder.extract cfg builder result in
          show (fun b ->
              Mapping.round_capacity
                ~initial_tokens:(Config.initial_tokens cfg b)
                (c.Socp_builder.space b))
        | st -> Format.asprintf "%a" Conic.Socp.pp_status st
      in
      Format.fprintf ppf "  %-10d %-20s %-20s@." n simplex_caps ipm_caps)
    [ 2; 4; 8 ];
  Format.fprintf ppf
    "@.  (identical rounded capacities: the two solvers agree on the LP)@."

let simulation ppf =
  header ppf "Validation: required period vs TDM-simulated steady state";
  Format.fprintf ppf "  %-22s %-14s %-16s %-8s@." "instance" "required"
    "simulated" "ok";
  let check name cfg =
    match Mapping.solve cfg with
    | Error e -> Format.fprintf ppf "  %-22s %a@." name Mapping.pp_error e
    | Ok r -> begin
      match Tdm_sim.Sim.run cfg r.Mapping.mapped ~iterations:1000 () with
      | Error e -> Format.fprintf ppf "  %-22s sim error: %s@." name e
      | Ok report ->
        List.iter
          (fun g ->
            let mu = Config.period cfg g
            and p = report.Tdm_sim.Sim.graph_period g in
            Format.fprintf ppf "  %-22s %-14.3f %-16.3f %-8s@."
              (name ^ "/" ^ Config.graph_name cfg g)
              mu p
              (if p <= mu +. 0.2 then "yes" else "NO"))
          (Config.graphs cfg)
    end
  in
  check "paper T1" (Workloads.Gen.paper_t1 ());
  check "paper T2" (Workloads.Gen.paper_t2 ());
  check "chain n=6" (Workloads.Gen.chain ~n:6 ());
  check "split-join 3" (Workloads.Gen.split_join ~branches:3 ());
  check "ring n=4" (Workloads.Gen.ring ~n:4 ~initial:5 ())

(* Random strongly connected SRDF instances for the MCR ablation. *)
let random_srdf rng ~n =
  let g = Dataflow.Srdf.create () in
  let actors =
    Array.init n (fun i ->
        Dataflow.Srdf.add_actor g
          ~name:(string_of_int i)
          ~duration:(Workloads.Rng.float rng ~lo:0.5 ~hi:10.0))
  in
  for i = 0 to n - 1 do
    let tokens =
      if i = n - 1 then 1 + Workloads.Rng.int rng ~bound:3
      else Workloads.Rng.int rng ~bound:3
    in
    ignore
      (Dataflow.Srdf.add_edge g ~src:actors.(i)
         ~dst:actors.((i + 1) mod n)
         ~tokens)
  done;
  for _ = 1 to 2 * n do
    ignore
      (Dataflow.Srdf.add_edge g
         ~src:actors.(Workloads.Rng.int rng ~bound:n)
         ~dst:actors.(Workloads.Rng.int rng ~bound:n)
         ~tokens:(1 + Workloads.Rng.int rng ~bound:3))
  done;
  g

let mcr_ablation ppf =
  header ppf "Ablation: float Howard vs exact MCR";
  Format.fprintf ppf "  %-8s %-14s %-11s %-11s %-8s@." "actors" "MCR"
    "Howard[ms]" "exact[ms]" "agree";
  let rng = Workloads.Rng.create 1234L in
  List.iter
    (fun n ->
      let g = random_srdf rng ~n in
      let time f =
        let t0 = Unix.gettimeofday () in
        let r = f () in
        (r, 1000.0 *. (Unix.gettimeofday () -. t0))
      in
      let h, th = time (fun () -> Dataflow.Howard.max_cycle_ratio g) in
      let x, tx = time (fun () -> Dataflow.Howard.exact g) in
      match (h, x) with
      | Dataflow.Analysis.Mcr rh, `Mcr (rx, _) ->
        let rx = Exact.Rat.to_float rx in
        let agree = Float.abs (rh -. rx) <= 1e-9 *. Float.max 1.0 rx in
        Format.fprintf ppf "  %-8d %-14.6f %-11.3f %-11.3f %-8s@." n rx th tx
          (if agree then "yes" else "NO")
      | _ -> Format.fprintf ppf "  %-8d unexpected classification@." n)
    [ 10; 50; 100; 200 ]

let pareto ?pool ppf =
  header ppf "Extension: Pareto frontier of budgets vs containers (T1)";
  Format.fprintf ppf "  %-14s %-16s %-12s@." "weight ratio" "sum of budgets"
    "containers";
  let cfg = Workloads.Gen.paper_t1 () in
  let sweep = Budgetbuf.Pareto.frontier ~steps:11 ?pool cfg in
  List.iter
    (fun (p : Budgetbuf.Pareto.point) ->
      Format.fprintf ppf "  %-14.3g %-16.4f %-12d@."
        p.Budgetbuf.Pareto.weight_ratio p.Budgetbuf.Pareto.budget_sum
        p.Budgetbuf.Pareto.buffer_containers)
    sweep.Budgetbuf.Pareto.points;
  (match sweep.Budgetbuf.Pareto.skipped with
  | [] -> ()
  | skipped ->
    Format.fprintf ppf "  skipped: %d (%s)@." (List.length skipped)
      (String.concat ", "
         (List.sort_uniq compare (List.map snd skipped))));
  Format.fprintf ppf
    "@.  (the frontier spans the same curve as Figure 2(a): 2x39 budget@.    \  with 1 container down to 2x4 budget with 10 containers)@."

let binding ppf =
  header ppf "Extension: binding search (paper future work)";
  Format.fprintf ppf "  %-24s %-14s %-10s@." "strategy" "objective" "solves";
  let make () =
    let cfg = Config.create ~granularity:1.0 () in
    let fast = Config.add_processor cfg ~name:"fast" ~replenishment:30.0 () in
    let _slow = Config.add_processor cfg ~name:"slow" ~replenishment:60.0 () in
    let m = Config.add_memory cfg ~name:"m0" ~capacity:4096 in
    let g = Config.add_graph cfg ~name:"pipe" ~period:12.0 () in
    let tasks =
      List.map
        (fun (name, wcet) -> Config.add_task cfg g ~name ~proc:fast ~wcet ())
        [ ("grab", 1.0); ("filter", 3.0); ("encode", 2.0); ("emit", 0.5) ]
    in
    let rec connect i = function
      | a :: (b :: _ as rest) ->
        ignore
          (Config.add_buffer cfg g
             ~name:(Printf.sprintf "q%d" i)
             ~src:a ~dst:b ~memory:m ~weight:0.01 ());
        connect (i + 1) rest
      | [ _ ] | [] -> ()
    in
    connect 0 tasks;
    cfg
  in
  List.iter
    (fun (name, strategy) ->
      match Budgetbuf.Binding.optimize ~strategy (make ()) with
      | Error msg -> Format.fprintf ppf "  %-24s %s@." name msg
      | Ok o ->
        Format.fprintf ppf "  %-24s %-14.3f %-10d@." name
          o.Budgetbuf.Binding.result.Mapping.rounded_objective
          o.Budgetbuf.Binding.explored)
    [
      ("first fit", Budgetbuf.Binding.First_fit);
      ("greedy utilisation", Budgetbuf.Binding.Greedy_utilization);
      ("exhaustive", Budgetbuf.Binding.Exhaustive 64);
    ]

(* Random capped chains: the structured family where the two-phase
   false negatives show up at scale. *)
let campaign ppf =
  header ppf
    "Campaign: joint vs two-phase over 100 random capped chains";
  let rng = Workloads.Rng.create 20100308L in
  let instances =
    List.init 100 (fun _ ->
        let n = 2 + Workloads.Rng.int rng ~bound:4 in
        let cfg = Workloads.Gen.random_chain rng ~n () in
        (* Cap every buffer somewhere between tight and generous. *)
        let cap = 2 + Workloads.Rng.int rng ~bound:8 in
        List.iter
          (fun b -> Config.set_max_capacity cfg b (Some cap))
          (Config.all_buffers cfg);
        cfg)
  in
  let joint_feasible = ref 0 in
  let joint_infeasible = ref 0 in
  let fn_min = ref 0 and fn_fair = ref 0 in
  let overhead_fair = ref [] in
  List.iter
    (fun cfg ->
      match Mapping.solve cfg with
      | Error _ -> incr joint_infeasible
      | Ok joint ->
        incr joint_feasible;
        (match Two_phase.budget_first ~policy:Two_phase.Min_budget cfg with
        | Error (Two_phase.Infeasible _) -> incr fn_min
        | Error (Two_phase.Solver_failure _) | Ok _ -> ());
        (match Two_phase.budget_first ~policy:Two_phase.Fair_share cfg with
        | Error (Two_phase.Infeasible _) -> incr fn_fair
        | Error (Two_phase.Solver_failure _) -> ()
        | Ok r ->
          if joint.Mapping.rounded_objective > 1e-9 then
            overhead_fair :=
              (r.Two_phase.objective /. joint.Mapping.rounded_objective)
              :: !overhead_fair))
    instances;
  Format.fprintf ppf "  instances:                         %d@."
    (List.length instances);
  Format.fprintf ppf "  joint flow feasible:               %d@." !joint_feasible;
  Format.fprintf ppf "  joint flow infeasible:             %d@."
    !joint_infeasible;
  Format.fprintf ppf
    "  two-phase (min budget) FALSE NEG:  %d of %d solvable (%.0f%%)@." !fn_min
    !joint_feasible
    (100.0 *. float_of_int !fn_min /. float_of_int (Int.max 1 !joint_feasible));
  Format.fprintf ppf
    "  two-phase (fair share) FALSE NEG:  %d of %d solvable@." !fn_fair
    !joint_feasible;
  (match !overhead_fair with
  | [] -> ()
  | ratios ->
    let n = float_of_int (List.length ratios) in
    let mean = List.fold_left ( +. ) 0.0 ratios /. n in
    let worst = List.fold_left Float.max 1.0 ratios in
    Format.fprintf ppf
      "  fair-share objective overhead:     mean %.2fx, worst %.2fx (over %d \
       feasible)@."
      mean worst (List.length ratios));
  Format.fprintf ppf
    "@.  the single-instance false negative of Section I is systematic:@.\
    \  a buffer-blind budget phase fails on a large share of instances@.\
    \  the joint formulation solves.@."

let critical ppf =
  header ppf "Extension: which cycle limits the throughput (T1 sweep)";
  Format.fprintf ppf "  %-9s %-12s %-22s %-18s@." "capacity" "slack"
    "critical tasks" "critical buffers";
  List.iter
    (fun cap ->
      let cfg = Workloads.Gen.paper_t1 () in
      List.iter
        (fun b -> Config.set_max_capacity cfg b (Some cap))
        (Config.all_buffers cfg);
      match Mapping.solve cfg with
      | Error e -> Format.fprintf ppf "  %-9d %a@." cap Mapping.pp_error e
      | Ok r ->
        let g = Config.find_graph cfg "t1" in
        (match Budgetbuf.Certify.max_cycle_ratio cfg g r.Mapping.mapped with
        | None -> Format.fprintf ppf "  %-9d %-12s (deadlocked)@." cap "-"
        | Some c ->
          (* the slack rounded down, never above the exact one *)
          let slack =
            Exact.Rat.to_decimal ~round:`Down ~digits:4
              c.Budgetbuf.Certify.slack
          in
          Format.fprintf ppf "  %-9d %-12s %-22s %-18s@." cap slack
            (String.concat ","
               (List.map (Config.task_name cfg) c.Budgetbuf.Certify.tasks))
            (String.concat ","
               (List.map (Config.buffer_name cfg)
                  c.Budgetbuf.Certify.buffers))))
    [ 1; 3; 5; 7; 9; 10 ];
  Format.fprintf ppf
    "@.  for caps below 10 the buffer ring through both tasks binds;@.\
    \  at 10 the self-loop of a single task takes over (beta = 4).@."

let dse ?pool ppf =
  header ppf
    "Extension: best sustainable period vs buffer capacity (DSE dual)";
  Format.fprintf ppf "  %-9s %-24s@." "capacity" "min period [Mcycles]";
  let cfg = Workloads.Gen.paper_t1 () in
  let curve = Budgetbuf.Dse.throughput_curve ?pool cfg ~caps:caps_1_10 in
  List.iter
    (fun (cap, period) ->
      Format.fprintf ppf "  %-9d %-24.4f@." cap period)
    (Budgetbuf.Dse.curve_points curve);
  (match Budgetbuf.Dse.curve_skipped curve with
  | [] -> ()
  | skipped ->
    Format.fprintf ppf "  skipped: %d (%s)@." (List.length skipped)
      (String.concat ", "
         (List.sort_uniq compare (List.map snd skipped))));
  Format.fprintf ppf
    "@.  the dual reading of Figure 2(a): with d containers the platform@.\
    \  sustains the printed period at best.  The floor rho*chi/(rho-o-g)@.\
    \  = 40/39 is reached already at 4 containers: at the floor the@.\
    \  budgets are maximal (39), so the critical cycle is short and@.\
    \  needs far fewer containers than the mu = 10 operating point of@.\
    \  Figure 2(a).@."

let latency ppf =
  header ppf
    "Extension: latency-constrained mapping (T1, bound sweep)";
  Format.fprintf ppf "  %-14s %-18s %-14s %-12s@." "latency bound"
    "objective (5)" "latency" "gamma";
  List.iter
    (fun bound ->
      let cfg = Config.create ~granularity:1.0 () in
      let p1 = Config.add_processor cfg ~name:"p1" ~replenishment:40.0 () in
      let p2 = Config.add_processor cfg ~name:"p2" ~replenishment:40.0 () in
      let m = Config.add_memory cfg ~name:"m0" ~capacity:1000 in
      let g =
        Config.add_graph cfg ~name:"t1" ~period:10.0 ?latency_bound:bound ()
      in
      let wa = Config.add_task cfg g ~name:"wa" ~proc:p1 ~wcet:1.0 () in
      let wb = Config.add_task cfg g ~name:"wb" ~proc:p2 ~wcet:1.0 () in
      let bab =
        Config.add_buffer cfg g ~name:"bab" ~src:wa ~dst:wb ~memory:m
          ~weight:0.001 ()
      in
      let label =
        match bound with None -> "none" | Some l -> Printf.sprintf "%g" l
      in
      match Mapping.solve cfg with
      | Error e -> Format.fprintf ppf "  %-14s %a@." label Mapping.pp_error e
      | Ok r ->
        let achieved =
          match
            Budgetbuf.Certify.latency cfg r.Mapping.mapped g
          with
          | Some l -> Exact.Rat.to_decimal ~round:`Up ~digits:2 l
          | None -> "-"
        in
        Format.fprintf ppf "  %-14s %-18.4f %-14s %-12d@." label
          r.Mapping.objective achieved
          (r.Mapping.mapped.Config.capacity bab))
    [ None; Some 90.0; Some 70.0; Some 50.0; Some 30.0; Some 10.0; Some 4.0 ];
  Format.fprintf ppf
    "@.  the paper trades budgets against buffers at fixed throughput;@.\
    \  adding the (affine) latency bound exposes the third axis: tighter@.\
    \  latency buys itself with larger budgets until the physical floor@.\
    \  2(rho - beta) + 2 rho chi / beta makes the bound infeasible.@."

let slp ppf =
  header ppf
    "Ablation: sequential-LP linearisation vs the SOCP (capped T1)";
  Format.fprintf ppf "  %-5s %-14s %-26s %-10s@." "cap" "SOCP obj"
    "SLP obj (iters, status)" "gap";
  List.iter
    (fun cap ->
      let cfg = Workloads.Gen.paper_t1 () in
      List.iter
        (fun b -> Config.set_max_capacity cfg b (Some cap))
        (Config.all_buffers cfg);
      let socp =
        match Mapping.solve cfg with
        | Ok r -> Some r.Mapping.rounded_objective
        | Error _ -> None
      in
      let socp_cell =
        match socp with Some o -> Printf.sprintf "%.3f" o | None -> "infeasible"
      in
      match Budgetbuf.Slp.solve cfg with
      | Error e ->
        Format.fprintf ppf "  %-5d %-14s %a@." cap socp_cell
          Budgetbuf.Slp.pp_error e
      | Ok o ->
        let status =
          Printf.sprintf "(%d, %s%s)" o.Budgetbuf.Slp.iterations
            (if o.Budgetbuf.Slp.converged then "converged" else "oscillating")
            (if o.Budgetbuf.Slp.verified then "" else ", UNVERIFIED")
        in
        let gap =
          match socp with
          | Some s when s > 1e-9 ->
            Printf.sprintf "%+.1f%%"
              (100.0 *. (o.Budgetbuf.Slp.objective -. s) /. s)
          | _ -> "-"
        in
        Format.fprintf ppf "  %-5d %-14s %-26s %-10s@." cap socp_cell
          (Printf.sprintf "%.3f %s" o.Budgetbuf.Slp.objective status)
          gap)
    [ 2; 4; 6; 8; 10 ];
  Format.fprintf ppf
    "@.  the iteration either oscillates between the corners of the frozen@.\
    \  LP or converges well above the cone optimum - the paper's judgement@.\
    \  that no reasonable linearisation exists, measured.  (A negative gap@.\
    \  is possible: both methods round to integers, and an asymmetric@.\
    \  integer point can beat the rounded symmetric continuous optimum -@.\
    \  the integrality sub-optimality the paper itself notes.)@."

let apps ppf =
  header ppf "Application suite: classic streaming apps end to end";
  Format.fprintf ppf "  %-14s %-7s %-8s %-12s %-12s %-12s@." "application"
    "tasks" "buffers" "objective" "solve [ms]" "sim period";
  List.iter
    (fun (name, build) ->
      let cfg = build () in
      match Mapping.solve cfg with
      | Error e -> Format.fprintf ppf "  %-14s %a@." name Mapping.pp_error e
      | Ok r ->
        let sim =
          match Tdm_sim.Sim.run cfg r.Mapping.mapped ~iterations:500 () with
          | Error _ -> "-"
          | Ok report ->
            String.concat "/"
              (List.map
                 (fun g ->
                   Printf.sprintf "%.2f" (report.Tdm_sim.Sim.graph_period g))
                 (Config.graphs cfg))
        in
        Format.fprintf ppf "  %-14s %-7d %-8d %-12.3f %-12.2f %-12s@." name
          (List.length (Config.all_tasks cfg))
          (List.length (Config.all_buffers cfg))
          r.Mapping.rounded_objective
          (1000.0 *. r.Mapping.stats.Mapping.solve_time_s)
          sim)
    Workloads.Apps.all

let series ?pool () =
  [
    fig2a; fig2b; fig3; runtime; baselines; rounding; lp_cross_check;
    simulation; mcr_ablation; pareto ?pool; binding; campaign; dse ?pool;
    critical; latency; slp; apps;
  ]

let all ?pool ppf =
  match pool with
  | None -> List.iter (fun f -> f ppf) (series ())
  | Some pool ->
    (* Each table/figure renders into its own buffer on the pool;
       printing the buffers in registry order afterwards keeps the
       report byte-identical to the sequential run.  The nested sweeps
       of [pareto] and [dse] share the same pool (the pool supports
       nested maps), so no domain idles while a big series runs. *)
    let rendered =
      Parallel.Pool.map_result pool
        (fun f ->
          let buf = Buffer.create 4096 in
          let bppf = Format.formatter_of_buffer buf in
          f bppf;
          Format.pp_print_flush bppf ();
          Buffer.contents buf)
        (series ~pool ())
    in
    (* A crashing series costs its own table, not the whole report. *)
    List.iter
      (function
        | Ok text -> Format.pp_print_string ppf text
        | Error e ->
          Format.fprintf ppf "@.  (series failed: %s)@.@."
            (Printexc.to_string e))
      rendered

let registry ?pool () =
  [
    ("fig2a", fig2a);
    ("fig2b", fig2b);
    ("fig3", fig3);
    ("rt", runtime);
    ("baselines", baselines);
    ("rounding", rounding);
    ("lp", lp_cross_check);
    ("sim", simulation);
    ("mcr", mcr_ablation);
    ("pareto", pareto ?pool);
    ("binding", binding);
    ("campaign", campaign);
    ("dse", dse ?pool);
    ("critical", critical);
    ("latency", latency);
    ("slp", slp);
    ("apps", apps);
    ("all", all ?pool);
  ]

let by_name ?pool name = List.assoc_opt name (registry ?pool ())
let names = List.map fst (registry ())
