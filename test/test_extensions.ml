(* Tests for the extension modules built on top of the paper's flow:
   binding search (the paper's future work), Pareto-frontier
   exploration, and end-to-end latency bounds. *)

module Config = Taskgraph.Config
module Mapping = Budgetbuf.Mapping
module Binding = Budgetbuf.Binding
module Pareto = Budgetbuf.Pareto

let check_float eps = Alcotest.(check (float eps))

let solve_exn cfg =
  match Mapping.solve cfg with
  | Ok r -> r
  | Error e -> Alcotest.failf "solve failed: %a" Mapping.pp_error e

(* ------------------------------------------------------------------ *)
(* Binding.rebind                                                      *)
(* ------------------------------------------------------------------ *)

let test_rebind_identity () =
  let cfg = Workloads.Gen.paper_t2 () in
  let clone = Binding.rebind cfg ~assign:(Config.task_proc cfg) in
  Alcotest.(check string) "identical pp"
    (Format.asprintf "%a" Config.pp cfg)
    (Format.asprintf "%a" Config.pp clone)

let test_rebind_moves_task () =
  let cfg = Workloads.Gen.paper_t1 () in
  let p1 = Config.find_proc cfg "p1" in
  (* Put both tasks on p1. *)
  let clone = Binding.rebind cfg ~assign:(fun _ -> p1) in
  let p1' = Config.find_proc clone "p1" in
  Alcotest.(check int) "both on p1" 2
    (List.length (Config.tasks_on clone p1'));
  (* Original untouched. *)
  Alcotest.(check int) "original unchanged" 1
    (List.length (Config.tasks_on cfg p1))

let test_rebind_preserves_bounds () =
  let cfg = Workloads.Gen.paper_t1 () in
  Config.set_max_capacity cfg (Config.find_buffer cfg "bab") (Some 7);
  let clone = Binding.rebind cfg ~assign:(Config.task_proc cfg) in
  Alcotest.(check (option int)) "max capacity kept" (Some 7)
    (Config.max_capacity clone (Config.find_buffer clone "bab"))

(* ------------------------------------------------------------------ *)
(* Binding.optimize                                                    *)
(* ------------------------------------------------------------------ *)

let test_binding_greedy_feasible () =
  let rng = Workloads.Rng.create 77L in
  let cfg = Workloads.Gen.multi_job rng ~jobs:2 ~tasks_per_job:3 ~procs:3 () in
  match Binding.optimize ~strategy:Binding.Greedy_utilization cfg with
  | Error msg -> Alcotest.fail msg
  | Ok o ->
    Alcotest.(check int) "single solve" 1 o.Binding.explored;
    Alcotest.(check (list string)) "verified" []
      (List.map Budgetbuf.Violation.to_string
         (Float_verify.verify o.Binding.config
            o.Binding.result.Mapping.mapped));
    Alcotest.(check int) "every task assigned"
      (List.length (Config.all_tasks cfg))
      (List.length o.Binding.assignment)

let test_binding_first_fit_feasible () =
  let cfg = Workloads.Gen.chain ~n:4 ~shared_procs:2 () in
  match Binding.optimize ~strategy:Binding.First_fit cfg with
  | Error msg -> Alcotest.fail msg
  | Ok o ->
    Alcotest.(check (list string)) "verified" []
      (List.map Budgetbuf.Violation.to_string
         (Float_verify.verify o.Binding.config
            o.Binding.result.Mapping.mapped))

let test_binding_exhaustive_beats_or_ties_greedy () =
  (* Two tasks with very different WCETs and two processors with
     different intervals: exhaustive search must find a binding at
     least as good as the greedy one. *)
  let make () =
    let cfg = Config.create ~granularity:1.0 () in
    let _p1 = Config.add_processor cfg ~name:"p1" ~replenishment:40.0 () in
    let _p2 = Config.add_processor cfg ~name:"p2" ~replenishment:20.0 () in
    let m = Config.add_memory cfg ~name:"m0" ~capacity:1000 in
    let g = Config.add_graph cfg ~name:"t" ~period:10.0 () in
    let wa = Config.add_task cfg g ~name:"wa" ~proc:_p1 ~wcet:2.0 () in
    let wb = Config.add_task cfg g ~name:"wb" ~proc:_p1 ~wcet:0.5 () in
    ignore
      (Config.add_buffer cfg g ~name:"b" ~src:wa ~dst:wb ~memory:m
         ~weight:0.001 ());
    cfg
  in
  let exhaustive =
    match Binding.optimize ~strategy:(Binding.Exhaustive 16) (make ()) with
    | Ok o -> o
    | Error msg -> Alcotest.fail msg
  in
  Alcotest.(check int) "explored all 4 bindings" 4 exhaustive.Binding.explored;
  match Binding.optimize ~strategy:Binding.Greedy_utilization (make ()) with
  | Error _ -> () (* greedy may fail; exhaustive succeeded, fine *)
  | Ok greedy ->
    Alcotest.(check bool) "exhaustive <= greedy" true
      (exhaustive.Binding.result.Mapping.rounded_objective
      <= greedy.Binding.result.Mapping.rounded_objective +. 1e-9)

let test_binding_exhaustive_limit () =
  let cfg = Workloads.Gen.paper_t2 () in
  match Binding.optimize ~strategy:(Binding.Exhaustive 5) cfg with
  | Error _ -> () (* allowed: the 5 candidates may all be infeasible *)
  | Ok o -> Alcotest.(check bool) "limit" true (o.Binding.explored <= 5)

let test_binding_infeasible_reported () =
  (* One processor, two tasks whose minimal budgets cannot share it. *)
  let cfg = Config.create ~granularity:1.0 () in
  let p = Config.add_processor cfg ~name:"p" ~replenishment:10.0 () in
  let m = Config.add_memory cfg ~name:"m" ~capacity:100 in
  let g = Config.add_graph cfg ~name:"t" ~period:2.0 () in
  let wa = Config.add_task cfg g ~name:"wa" ~proc:p ~wcet:1.0 () in
  let wb = Config.add_task cfg g ~name:"wb" ~proc:p ~wcet:1.0 () in
  ignore (Config.add_buffer cfg g ~name:"b" ~src:wa ~dst:wb ~memory:m ());
  match Binding.optimize ~strategy:Binding.Greedy_utilization cfg with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected infeasibility"

(* ------------------------------------------------------------------ *)
(* Pareto                                                              *)
(* ------------------------------------------------------------------ *)

let test_pareto_frontier_shape () =
  let cfg = Workloads.Gen.paper_t1 () in
  let points = (Pareto.frontier ~steps:9 cfg).Pareto.points in
  Alcotest.(check bool) "at least two points" true (List.length points >= 2);
  (* Sorted by buffers ascending, budgets strictly descending. *)
  let rec check = function
    | p1 :: (p2 :: _ as rest) ->
      Alcotest.(check bool) "buffers increase" true
        (p2.Pareto.buffer_containers >= p1.Pareto.buffer_containers);
      Alcotest.(check bool) "budgets decrease" true
        (p2.Pareto.budget_sum < p1.Pareto.budget_sum);
      check rest
    | [ _ ] | [] -> ()
  in
  check points

let test_pareto_extremes () =
  let cfg = Workloads.Gen.paper_t1 () in
  let points = (Pareto.frontier ~steps:9 cfg).Pareto.points in
  let budgets = List.map (fun p -> p.Pareto.budget_sum) points in
  (* The budget-dominant end reaches the self-loop bound 2·4 = 8. *)
  check_float 0.1 "min budget end" 8.0 (List.fold_left Float.min infinity budgets);
  (* The buffer-dominant end accepts large budgets (≈ 2·39). *)
  Alcotest.(check bool) "max budget end" true
    (List.fold_left Float.max 0.0 budgets > 70.0)

let test_pareto_restores_weights () =
  let cfg = Workloads.Gen.paper_t1 () in
  let wa = Config.find_task cfg "wa" in
  Config.set_task_weight cfg wa 3.5;
  ignore (Pareto.frontier ~steps:3 cfg);
  check_float 0.0 "weight restored" 3.5 (Config.task_weight cfg wa)

let test_pareto_infeasible_empty () =
  let cfg = Workloads.Gen.paper_t1 () in
  Config.set_max_capacity cfg (Config.find_buffer cfg "bab") (Some 1);
  (* Capacity 1 needs β ≈ 36.1 on each side: feasible, so shrink the
     interval instead to force infeasibility. *)
  let cfg2 = Config.create ~granularity:1.0 () in
  let p1 = Config.add_processor cfg2 ~name:"p1" ~replenishment:40.0 () in
  let p2 = Config.add_processor cfg2 ~name:"p2" ~replenishment:40.0 () in
  let m = Config.add_memory cfg2 ~name:"m" ~capacity:0 in
  let g = Config.add_graph cfg2 ~name:"t" ~period:10.0 () in
  let wa = Config.add_task cfg2 g ~name:"wa" ~proc:p1 ~wcet:1.0 () in
  let wb = Config.add_task cfg2 g ~name:"wb" ~proc:p2 ~wcet:1.0 () in
  ignore (Config.add_buffer cfg2 g ~name:"b" ~src:wa ~dst:wb ~memory:m ());
  Alcotest.(check (list (of_pp Pareto.pp_point))) "empty" []
    (Pareto.frontier ~steps:3 cfg2).Pareto.points

(* ------------------------------------------------------------------ *)
(* Latency                                                             *)
(* ------------------------------------------------------------------ *)

(* The latency of the graph's earliest PAS. *)
let certified_latency cfg g mapped = Budgetbuf.Certify.latency cfg mapped g

let test_latency_t1 () =
  (* β = 4 everywhere, γ = 10: ρ(v1) = 36, ρ(v2) = 10.  The earliest
     PAS has s(a1) = 0, s(a2) = 36, s(b1) = 46, s(b2) = 82; latency =
     82 + 10 − 0 = 92, exactly and in the float oracle. *)
  let cfg = Workloads.Gen.paper_t1 () in
  let g = Config.find_graph cfg "t1" in
  let mapped =
    { Config.budget = (fun _ -> 4.0); Config.capacity = (fun _ -> 10) }
  in
  (match certified_latency cfg g mapped with
  | Some l -> Alcotest.(check string) "latency" "92" (Exact.Rat.to_string l)
  | None -> Alcotest.fail "expected a schedule");
  (* The same schedule as the certificate's witness. *)
  (match Budgetbuf.Certify.check cfg mapped with
  | Budgetbuf.Certify.Certified { starts } ->
    let s a = Exact.Rat.to_string (List.assoc a starts) in
    Alcotest.(check (list string)) "witness starts" [ "0"; "82" ]
      [ s "wa.1"; s "wb.2" ]
  | Budgetbuf.Certify.Refuted _ -> Alcotest.fail "expected a certificate");
  match Float_verify.chain_latency cfg g mapped with
  | Some l -> check_float 1e-6 "float oracle" 92.0 l
  | None -> Alcotest.fail "expected a float schedule"

let test_latency_none_when_infeasible () =
  let cfg = Workloads.Gen.paper_t1 () in
  let g = Config.find_graph cfg "t1" in
  let mapped =
    { Config.budget = (fun _ -> 4.0); Config.capacity = (fun _ -> 2) }
  in
  Alcotest.(check bool) "no PAS, no latency" true
    (certified_latency cfg g mapped = None);
  Alcotest.(check bool) "float oracle agrees" true
    (Float_verify.chain_latency cfg g mapped = None)

let test_latency_bigger_budget_shrinks () =
  let cfg = Workloads.Gen.paper_t1 () in
  let g = Config.find_graph cfg "t1" in
  let latency beta =
    match
      certified_latency cfg g
        { Config.budget = (fun _ -> beta); Config.capacity = (fun _ -> 10) }
    with
    | Some l -> l
    | None -> Alcotest.fail "expected a schedule"
  in
  Alcotest.(check bool) "monotone" true
    (Exact.Rat.compare (latency 20.0) (latency 4.0) < 0)

let test_latency_chain_requires_unique_endpoints () =
  let cfg = Workloads.Gen.split_join ~branches:2 () in
  let g = Config.find_graph cfg "t0" in
  let mapped =
    { Config.budget = (fun _ -> 4.0); Config.capacity = (fun _ -> 10) }
  in
  (* Split-join: single source and single sink exist — must work. *)
  Alcotest.(check bool) "split-join has endpoints" true
    (Config.chain_ends cfg g <> None && certified_latency cfg g mapped <> None);
  (* A two-task graph with a reverse buffer has no source: its
     certified mapping has no latency. *)
  let cfg2 = Workloads.Gen.ring ~n:2 ~initial:2 () in
  let g2 = Config.find_graph cfg2 "t0" in
  let r2 = solve_exn cfg2 in
  Alcotest.(check bool) "ring rejected" true
    (Config.chain_ends cfg2 g2 = None
    && Budgetbuf.Certify.certified r2.Mapping.certificate
    && Budgetbuf.Certify.latency cfg2 r2.Mapping.mapped g2 = None)

let test_latency_solver_mapping () =
  (* End-to-end: latency of the solver's own mapping on a chain is
     finite and at least the sum of the processing durations. *)
  let cfg = Workloads.Gen.chain ~n:4 () in
  let r = solve_exn cfg in
  match
    Budgetbuf.Certify.latency cfg r.Mapping.mapped (Config.find_graph cfg "t0")
  with
  | None -> Alcotest.fail "expected a schedule"
  | Some l ->
    let min_work =
      List.fold_left
        (fun acc w ->
          let p = Config.task_proc cfg w in
          acc
          +. Config.replenishment cfg p *. Config.wcet cfg w
             /. r.Mapping.mapped.Config.budget w)
        0.0 (Config.all_tasks cfg)
    in
    Alcotest.(check bool) "at least the processing time" true
      (Exact.Rat.to_float l >= min_work -. 1e-6)

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let prop_rebind_preserves_solution =
  QCheck2.Test.make
    ~name:"rebinding with the identity preserves the optimum" ~count:15
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      let rng = Workloads.Rng.create (Int64.of_int seed) in
      let cfg = Workloads.Gen.random_chain rng ~n:3 () in
      let clone = Binding.rebind cfg ~assign:(Config.task_proc cfg) in
      match (Mapping.solve cfg, Mapping.solve clone) with
      | Ok r1, Ok r2 ->
        Float.abs (r1.Mapping.objective -. r2.Mapping.objective)
        <= 1e-6 *. Float.max 1.0 (Float.abs r1.Mapping.objective)
      | _ -> false)

(* Task binding and memory placement share one search.  On instances
   small enough to enumerate — two bins and two or three items, so
   kⁿ ≤ 8 — exhaustive search solves every candidate, and no heuristic
   that succeeds beats it.  The memory instance gets a second, smaller
   memory next to the generator's roomy [m0]. *)
let prop_exhaustive_bounds_heuristics =
  QCheck2.Test.make
    ~name:"exhaustive binding explores k^n and bounds every heuristic"
    ~count:8
    QCheck2.Gen.(pair (int_range 0 10_000) (int_range 2 3))
    (fun (seed, n) ->
      let instance tasks_per_job =
        let rng = Workloads.Rng.create (Int64.of_int seed) in
        Workloads.Gen.multi_job rng ~jobs:1 ~tasks_per_job ~procs:2 ()
      in
      let with_second_memory cfg =
        ignore (Config.add_memory cfg ~name:"m1" ~capacity:(2 + (seed mod 9)));
        cfg
      in
      let holds optimize cfg =
        match optimize ~strategy:(Binding.Exhaustive 16) cfg with
        | Error _ -> false
        | Ok best ->
          best.Binding.explored = 1 lsl n
          && List.for_all
               (fun strategy ->
                 match optimize ~strategy cfg with
                 | Error _ -> true
                 | Ok o ->
                   best.Binding.result.Mapping.rounded_objective
                   <= o.Binding.result.Mapping.rounded_objective +. 1e-9)
               [ Binding.Greedy_utilization; Binding.First_fit ]
      in
      holds (fun ~strategy -> Binding.optimize ~strategy) (instance n)
      && holds
           (fun ~strategy -> Binding.optimize_memories ~strategy)
           (with_second_memory (instance (n + 1))))

let prop_pareto_points_feasible =
  QCheck2.Test.make ~name:"Pareto points come from verified mappings"
    ~count:8
    QCheck2.Gen.(int_range 2 4)
    (fun n ->
      let cfg = Workloads.Gen.chain ~n () in
      let points = (Pareto.frontier ~steps:5 cfg).Pareto.points in
      points <> []
      && List.for_all (fun p -> p.Pareto.buffer_containers >= n - 1) points)


(* ------------------------------------------------------------------ *)
(* Buffer-to-memory binding                                            *)
(* ------------------------------------------------------------------ *)

(* Two memories of different sizes; two jobs whose buffers must be
   spread across them. *)
let memory_instance ~m0 ~m1 =
  let cfg = Config.create ~granularity:1.0 () in
  let procs =
    Array.init 4 (fun i ->
        Config.add_processor cfg
          ~name:(Printf.sprintf "p%d" i)
          ~replenishment:40.0 ())
  in
  let _ma = Config.add_memory cfg ~name:"sram" ~capacity:m0 in
  let _mb = Config.add_memory cfg ~name:"dram" ~capacity:m1 in
  let add_job name p1 p2 =
    let g = Config.add_graph cfg ~name ~period:10.0 () in
    let wa = Config.add_task cfg g ~name:(name ^ ".a") ~proc:procs.(p1) ~wcet:1.0 () in
    let wb = Config.add_task cfg g ~name:(name ^ ".b") ~proc:procs.(p2) ~wcet:1.0 () in
    ignore
      (Config.add_buffer cfg g ~name:(name ^ ".buf") ~src:wa ~dst:wb
         ~memory:_ma ~weight:0.001 ())
  in
  add_job "j0" 0 1;
  add_job "j1" 2 3;
  cfg

let test_memory_rebind_moves_buffer () =
  let cfg = memory_instance ~m0:100 ~m1:100 in
  let dram = Config.find_memory cfg "dram" in
  let clone = Binding.rebind_memories cfg ~assign:(fun _ -> dram) in
  List.iter
    (fun b ->
      Alcotest.(check string) "moved" "dram"
        (Config.memory_name clone (Config.buffer_memory clone b)))
    (Config.all_buffers clone)

let test_memory_greedy_spreads () =
  (* Each buffer wants 10 containers; sram holds 11, dram holds 11:
     both in one memory would be infeasible, the greedy placement must
     spread them and solve. *)
  let cfg = memory_instance ~m0:11 ~m1:11 in
  match Binding.optimize_memories ~strategy:Binding.Greedy_utilization cfg with
  | Error msg -> Alcotest.fail msg
  | Ok o ->
    let mems =
      List.sort_uniq compare (List.map snd o.Binding.assignment)
    in
    Alcotest.(check int) "uses both memories" 2 (List.length mems);
    Alcotest.(check (list string)) "verified" []
      (List.map Budgetbuf.Violation.to_string
         (Float_verify.verify o.Binding.config
            o.Binding.result.Mapping.mapped))

let test_memory_exhaustive_finds_best () =
  let cfg = memory_instance ~m0:11 ~m1:11 in
  match Binding.optimize_memories ~strategy:(Binding.Exhaustive 8) cfg with
  | Error msg -> Alcotest.fail msg
  | Ok o ->
    Alcotest.(check int) "explored all 4" 4 o.Binding.explored;
    Alcotest.(check (list string)) "verified" []
      (List.map Budgetbuf.Violation.to_string
         (Float_verify.verify o.Binding.config
            o.Binding.result.Mapping.mapped))

let test_memory_infeasible () =
  (* Memories too small for even the minimal footprint. *)
  let cfg = memory_instance ~m0:0 ~m1:0 in
  match Binding.optimize_memories cfg with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected infeasibility"



(* ------------------------------------------------------------------ *)
(* Sensitivity analysis                                                *)
(* ------------------------------------------------------------------ *)

module Sensitivity = Budgetbuf.Sensitivity

let t1_cfg_mapped budget capacity =
  ( Workloads.Gen.paper_t1 (),
    { Config.budget = (fun _ -> budget); Config.capacity = (fun _ -> capacity) }
  )

(* µ − MCR, exactly. *)
let exact_slack cfg g mapped =
  Option.map
    (fun c -> c.Budgetbuf.Certify.slack)
    (Budgetbuf.Certify.max_cycle_ratio cfg g mapped)

let test_sensitivity_slack_t1 () =
  (* β = 4, γ = 10 is exactly critical: MCR = µ = 10, slack 0. *)
  let cfg, mapped = t1_cfg_mapped 4.0 10 in
  let g = Config.find_graph cfg "t1" in
  (match exact_slack cfg g mapped with
  | Some s -> Alcotest.(check int) "tight mapping" 0 (Exact.Rat.sign s)
  | None -> Alcotest.fail "expected slack");
  (* Generous budgets leave positive slack. *)
  let cfg, mapped = t1_cfg_mapped 20.0 10 in
  let g = Config.find_graph cfg "t1" in
  match exact_slack cfg g mapped with
  | Some s -> Alcotest.(check int) "positive slack" 1 (Exact.Rat.sign s)
  | None -> Alcotest.fail "expected slack"

let test_sensitivity_critical_cycle_t1 () =
  (* At β = 4, γ = 10 the self-loop (ρ(v2) = 10 = µ) is critical: a
     single task bounds the throughput and no buffer does.  At γ = 5
     with the matching minimal budget (≈17.31) the buffer cycle binds:
     both tasks and the buffer appear. *)
  let cfg, mapped = t1_cfg_mapped 4.0 10 in
  let g = Config.find_graph cfg "t1" in
  (match Budgetbuf.Certify.max_cycle_ratio cfg g mapped with
  | None -> Alcotest.fail "expected a critical cycle"
  | Some c ->
    Alcotest.(check string) "ratio" "10"
      (Exact.Rat.to_string c.Budgetbuf.Certify.ratio);
    Alcotest.(check int) "self-loop: one task" 1
      (List.length c.Budgetbuf.Certify.tasks);
    Alcotest.(check int) "no buffer" 0
      (List.length c.Budgetbuf.Certify.buffers));
  let cfg, mapped = t1_cfg_mapped 17.3107 5 in
  let g = Config.find_graph cfg "t1" in
  match Budgetbuf.Certify.max_cycle_ratio cfg g mapped with
  | None -> Alcotest.fail "expected a critical cycle"
  | Some c ->
    Alcotest.(check int) "both tasks" 2 (List.length c.Budgetbuf.Certify.tasks);
    Alcotest.(check int) "the buffer" 1
      (List.length c.Budgetbuf.Certify.buffers)

let test_sensitivity_budget_slack () =
  (* With γ = 10 and β = 20, each budget can fall to 4 keeping µ = 10
     when the other stays at 20 (cycle: 80 − β₁ − β₂ + 40/β₁ + 40/β₂
     ≤ 100 is loose; the self-loop 40/β ≤ 10 binds). *)
  let cfg, mapped = t1_cfg_mapped 20.0 10 in
  let g = Config.find_graph cfg "t1" in
  let wa = Config.find_task cfg "wa" in
  let slack = Sensitivity.budget_slack cfg g mapped wa in
  check_float 1e-3 "slack to the self-loop bound" 16.0 slack;
  (* A critical mapping has no slack. *)
  let cfg, mapped = t1_cfg_mapped 4.0 10 in
  let g = Config.find_graph cfg "t1" in
  let wa = Config.find_task cfg "wa" in
  check_float 1e-3 "critical: zero slack" 0.0
    (Sensitivity.budget_slack cfg g mapped wa)

let test_sensitivity_infeasible_mapping () =
  let cfg, mapped = t1_cfg_mapped 4.0 2 in
  let g = Config.find_graph cfg "t1" in
  (* The mapping misses µ; slack is negative but well-defined. *)
  (match exact_slack cfg g mapped with
  | Some s -> Alcotest.(check int) "negative slack" (-1) (Exact.Rat.sign s)
  | None -> Alcotest.fail "expected a slack value");
  check_float 1e-9 "no budget slack" 0.0
    (Sensitivity.budget_slack cfg g mapped (Config.find_task cfg "wa"))

let prop_budget_slack_consistent =
  (* Reducing the budget by slightly less than the slack stays
     feasible; by slightly more than the slack becomes infeasible. *)
  QCheck2.Test.make ~name:"budget slack is the feasibility boundary"
    ~count:25
    QCheck2.Gen.(pair (float_range 6.0 30.0) (int_range 4 10))
    (fun (beta, cap) ->
      let cfg, mapped = t1_cfg_mapped beta cap in
      let g = Config.find_graph cfg "t1" in
      if not (Float_verify.throughput_ok cfg g mapped) then true
      else begin
        let wa = Config.find_task cfg "wa" in
        let slack = Sensitivity.budget_slack cfg g mapped wa in
        let with_beta b =
          {
            mapped with
            Config.budget =
              (fun w ->
                if Config.task_id w = Config.task_id wa then b
                else mapped.Config.budget w);
          }
        in
        let ok_below =
          slack < 1e-6
          || Float_verify.throughput_ok cfg g
               (with_beta (beta -. slack +. 1e-4))
        in
        let bad_above =
          beta -. slack -. 1e-3 <= 0.0
          || not
               (Float_verify.throughput_ok cfg g
                  (with_beta (beta -. slack -. 1e-3)))
        in
        ok_below && bad_above
      end)

let prop_budget_probe_matches_schedulable =
  (* The bisection's probe keeps one model and the last refuting cycle
     across calls; in any order of budgets, including invalid ones (as
     the mapped budget of [w] too), it answers as a fresh
     [schedulable] does. *)
  QCheck2.Test.make ~name:"budget probe matches schedulable" ~count:50
    QCheck2.Gen.(
      quad (int_range 2 5) (float_range 4.0 30.0) (int_range 2 10)
        (list_size (int_range 2 12) (float_range (-1.0) 45.0)))
    (fun (n, beta, cap, probes) ->
      let cfg = Workloads.Gen.chain ~n () in
      let g = Config.find_graph cfg "t0" in
      let w = List.nth (Config.tasks cfg g) (n / 2) in
      let mapped =
        {
          Config.budget =
            (fun w' ->
              if Config.task_id w' = Config.task_id w then List.hd probes
              else beta);
          Config.capacity = (fun _ -> cap);
        }
      in
      let probe = Budgetbuf.Certify.schedulable_budget cfg g mapped w in
      List.for_all
        (fun b ->
          probe b
          = Budgetbuf.Certify.schedulable cfg g
              {
                mapped with
                Config.budget =
                  (fun w' ->
                    if Config.task_id w' = Config.task_id w then b else beta);
              })
        probes)



(* ------------------------------------------------------------------ *)
(* Design-space exploration                                            *)
(* ------------------------------------------------------------------ *)

module Dse = Budgetbuf.Dse

let test_copy_period_scale () =
  let cfg = Workloads.Gen.paper_t1 () in
  let scaled = Config.copy ~period_scale:2.0 cfg in
  check_float 1e-12 "scaled period" 20.0
    (Config.period scaled (Config.find_graph scaled "t1"));
  check_float 1e-12 "original untouched" 10.0
    (Config.period cfg (Config.find_graph cfg "t1"))

let cap_all cfg cap =
  let capped = Config.copy cfg in
  List.iter
    (fun b -> Config.set_max_capacity capped b (Some cap))
    (Config.all_buffers capped);
  capped

let test_dse_min_period_t1 () =
  (* Ample buffers: the best sustainable period is the self-loop
     bound... scaled µ with β ≤ 39 → ̺χ/β = 40/39 ≈ 1.0256 is the
     physical floor; the scale must land at ≈ 0.10256. *)
  let cfg = cap_all (Workloads.Gen.paper_t1 ()) 100 in
  match Dse.min_period_scale cfg with
  | None -> Alcotest.fail "expected a feasible scale"
  | Some s ->
    let period = 10.0 *. s in
    Alcotest.(check bool) "near the physical floor 40/39" true
      (Float.abs (period -. (40.0 /. 39.0)) <= 0.02)

let test_dse_min_period_infeasible_structure () =
  (* Zero-capacity memory can never be fixed by relaxing the period. *)
  let cfg = Config.create ~granularity:1.0 () in
  let p1 = Config.add_processor cfg ~name:"p1" ~replenishment:40.0 () in
  let p2 = Config.add_processor cfg ~name:"p2" ~replenishment:40.0 () in
  let m = Config.add_memory cfg ~name:"m" ~capacity:0 in
  let g = Config.add_graph cfg ~name:"t" ~period:10.0 () in
  let wa = Config.add_task cfg g ~name:"wa" ~proc:p1 ~wcet:1.0 () in
  let wb = Config.add_task cfg g ~name:"wb" ~proc:p2 ~wcet:1.0 () in
  ignore (Config.add_buffer cfg g ~name:"b" ~src:wa ~dst:wb ~memory:m ());
  let obs = Obs.Ctx.make () in
  Alcotest.(check bool) "structural dead end" true
    (Dse.min_period_scale ~obs (cap_all cfg 4) = None);
  Alcotest.(check bool) "no cone solve" true
    (List.mem "solves: 0 (0 iterations)" (Obs.Ctx.report obs));
  (* Every buffer must be capped. *)
  match Dse.min_period_scale cfg with
  | _ -> Alcotest.fail "an uncapped buffer must be refused"
  | exception Invalid_argument msg ->
    Alcotest.(check string) "names the buffer"
      "Dse: buffer b has no capacity cap" msg

(* A point stands on its exact certificate alone.  On car-radio at
   caps 7-10 (then each cap seeded from its own warm anchor), a float
   dataflow check of the old probe search accepted probes the
   certificate refutes, which left cap 10 at a period twice that of
   cap 9.  The mapping behind every accepted scale must be certified
   there, and more buffering can only help.  Each cap solves as
   [Dse.throughput_curve] does. *)
let test_dse_accepts_only_certified () =
  let cfg = List.assoc "car-radio" Workloads.Apps.all () in
  let min_period cap =
    let capped = cap_all cfg cap in
    let last = ref None in
    match
      Dse.min_period_scale ~on_feasible:(fun m -> last := Some m) capped
    with
    | None -> Alcotest.failf "cap %d: no feasible period" cap
    | Some scale ->
      let graphs = Config.graphs capped in
      let periods = List.map (fun g -> Config.period capped g) graphs in
      (* The accepted scale is rounded up; one ulp more keeps each
         period at or above the mapping's exact one. *)
      List.iter2
        (fun g mu -> Config.set_period capped g (Float.succ (mu *. scale)))
        graphs periods;
      Alcotest.(check bool)
        (Printf.sprintf "cap %d: accepted mapping certified" cap)
        true
        (Budgetbuf.Certify.certified
           (Budgetbuf.Certify.check capped (Option.get !last)));
      List.hd periods *. scale
  in
  match List.map min_period [ 7; 8; 9; 10 ] with
  | [ _; _; p9; p10 ] ->
    Alcotest.(check bool)
      (Printf.sprintf "cap 10 (%.4f) no worse than cap 9 (%.4f)" p10 p9)
      true (p10 <= p9)
  | _ -> assert false

(* A cap below a buffer's initial tokens admits no mapping at any
   period.  [Mapping.solve] says so, naming the buffer, and the dse
   solve gives up, both without a cone solve; the curve prints the cap
   as infeasible instead of skipping it as stalled. *)
let test_dse_cap_below_tokens () =
  let ring = Workloads.Gen.ring ~n:6 ~initial:2 () in
  let capped = cap_all ring 1 in
  let obs = Obs.Ctx.make () in
  (match Mapping.solve ~obs capped with
  | Error (Mapping.Infeasible msg) ->
    Alcotest.(check string) "names the buffer"
      "buffer b5 holds 2 initial tokens, above its cap 1" msg
  | Ok _ | Error _ -> Alcotest.fail "expected an infeasibility verdict");
  Alcotest.(check bool) "no scale" true
    (Dse.min_period_scale ~obs capped = None);
  Alcotest.(check bool) "no cone solve" true
    (List.mem "solves: 0 (0 iterations)" (Obs.Ctx.report obs));
  match Dse.throughput_curve ~fault:None ring ~caps:[ 1; 2 ] with
  | [ p1; p2 ] ->
    Alcotest.(check bool) "cap 1 infeasible" true (p1.Dse.outcome = Ok None);
    Alcotest.(check bool) "cap 2 certified" true
      (match p2.Dse.outcome with Ok (Some _) -> true | _ -> false)
  | _ -> Alcotest.fail "expected two points"

(* Every mapping valid at cap 1 is valid at cap 2.  The blind bisection
   printed 5.5005 at cap 2 of split-join 4 against 4.0515 at cap 1: a
   probe whose cone solve was optimal but whose rounded mapping was
   refuted moved its lower end past feasible scales. *)
let test_dse_splitjoin_cap2_no_worse () =
  let cfg = Workloads.Gen.split_join ~branches:4 () in
  match
    Dse.curve_points (Dse.throughput_curve ~fault:None cfg ~caps:[ 1; 2 ])
  with
  | [ (1, p1); (2, p2) ] ->
    Alcotest.(check bool)
      (Printf.sprintf "cap 2 (%.4f) no worse than cap 1 (%.4f)" p2 p1)
      true (p2 <= p1)
  | _ -> Alcotest.fail "expected both caps feasible"

(* The nine dse instances of the benchmark's sweep-small workload. *)
let sweep_small_dse () =
  let app name = (name, List.assoc name Workloads.Apps.all ()) in
  [
    ("t1", Workloads.Gen.paper_t1 ());
    ("t2", Workloads.Gen.paper_t2 ());
    ("chain8", Workloads.Gen.chain ~n:8 ());
    ("splitjoin4", Workloads.Gen.split_join ~branches:4 ());
    ( "multijob3",
      Workloads.Gen.multi_job (Workloads.Rng.create 1L) ~jobs:3
        ~tasks_per_job:3 ~procs:3 () );
    app "h263-decoder";
    app "mp3-playback";
    app "modem";
    app "car-radio";
  ]

(* The rounded min-period bound never does worse than the blind
   bisection it replaced ({!Dse_bisection}), within that bisection's
   own width, and finds a point wherever it did. *)
let test_dse_no_worse_than_bisection () =
  let caps = List.init 10 succ in
  List.iter
    (fun (name, cfg) ->
      List.iter
        (fun (p : Dse.curve_point) ->
          match (p.outcome, Dse_bisection.min_period cfg ~cap:p.cap) with
          | Ok (Some period), Some old ->
            Alcotest.(check bool)
              (Printf.sprintf "%s cap %d: %.6f within 1e-4 of %.6f" name p.cap
                 period old)
              true
              (period <= old *. (1.0 +. 1e-4))
          | _, Some old ->
            Alcotest.failf "%s cap %d: bisection found %.6f, search nothing"
              name p.cap old
          | _, None -> ())
        (Dse.throughput_curve ~fault:None cfg ~caps))
    (sweep_small_dse ())

(* A capped-sweep instance: a random chain of 2-8 tasks or split-join,
   all in a memory far larger than any cap needs, or a memory-tight one:
   T1 or split-join 4 with every buffer in one memory of [k] containers
   per buffer. *)
type dse_instance = Random of int * bool | Tight of string * int

let random_dse_instance = function
  | Random (seed, split) ->
    let module Rng = Workloads.Rng in
    let rng = Rng.create (Int64.of_int seed) in
    if split then
      Workloads.Gen.split_join
        ~branches:(1 + Rng.int rng ~bound:6)
        ~wcet:(Rng.float rng ~lo:0.5 ~hi:2.0)
        ~replenishment:(Rng.float rng ~lo:20.0 ~hi:60.0)
        ~period:(Rng.float rng ~lo:5.0 ~hi:20.0)
        ()
    else Workloads.Gen.random_chain rng ~n:(2 + Rng.int rng ~bound:7) ()
  | Tight (name, k) ->
    let cfg =
      if name = "t1" then Workloads.Gen.paper_t1 ()
      else Workloads.Gen.split_join ~branches:4 ()
    in
    let buffers = Config.all_buffers cfg in
    let m =
      Config.add_memory cfg ~name:"tight"
        ~capacity:
          (k
          * List.fold_left
              (fun acc b -> acc + Config.container_size cfg b)
              0 buffers)
    in
    List.iter (fun b -> Config.set_buffer_memory cfg b m) buffers;
    cfg

(* A generator that tries every memory-tight instance first: each
   property needs its own, as the corners are consumed. *)
let dse_instance_gen () =
  QCheck2.Gen.(
    graft_corners
      (map (fun (seed, split) -> Random (seed, split))
         (pair (int_range 0 10_000) bool))
      [ Tight ("t1", 2); Tight ("t1", 3); Tight ("splitjoin4", 2);
        Tight ("splitjoin4", 3) ]
      ())

let print_dse_instance = function
  | Random (seed, split) -> Printf.sprintf "seed %d, split-join %b" seed split
  | Tight (name, k) -> Printf.sprintf "%s, %d containers per buffer" name k

(* The mapping behind a cap's own solve: the one it accepted. *)
let dse_mapping cfg cap =
  let last = ref None in
  ignore
    (Dse.min_period_scale ~fault:None
       ~on_feasible:(fun m -> last := Some m)
       (cap_all cfg cap));
  !last

(* [mapped] backs [period] under [cap]: it re-certifies with the
   graphs' periods set to [period], and its exact maximum cycle ratio
   lies within the float below it. *)
let backs cfg ~cap ~period mapped =
  let module Certify = Budgetbuf.Certify in
  let capped = cap_all cfg cap in
  let graphs = Config.graphs capped in
  List.iter (fun g -> Config.set_period capped g period) graphs;
  Certify.certified (Certify.check capped mapped)
  &&
  let ratio =
    (Option.get (Certify.max_cycle_ratio capped (List.hd graphs) mapped))
      .Certify.ratio
  in
  let at f = Exact.Rat.compare ratio (Exact.Rat.of_float f) in
  at period <= 0 && at (Float.pred period) > 0

(* Every printed point is the exact period of a certified mapping
   behind it, rounded up: the mapping of the solve at that cap, or at a
   smaller swept cap when the curve's envelope took that one's point. *)
let prop_dse_points_recertify =
  QCheck2.Test.make ~name:"dse points re-certify at their period" ~count:25
    ~print:print_dse_instance (dse_instance_gen ())
    (fun instance ->
      let cfg = random_dse_instance instance in
      let curve = Dse.throughput_curve ~fault:None cfg ~caps:[ 1; 2; 3; 4 ] in
      let mappings =
        List.map (fun (p : Dse.curve_point) -> (p.cap, dse_mapping cfg p.cap))
          curve
      in
      let recertifies (p : Dse.curve_point) =
        match p.outcome with
        | Ok None | Error _ -> true
        | Ok (Some period) ->
          List.exists
            (fun (cap, mapped) ->
              cap <= p.cap
              && Option.fold ~none:false
                   ~some:(backs cfg ~cap:p.cap ~period)
                   mapped)
            mappings
          || QCheck2.Test.fail_reportf "cap %d: no mapping backs %h" p.cap
               period
      in
      List.for_all recertifies curve)

(* Each cap costs exactly its one cone solve, and its point lies at or
   below the bound's period ·(1 + 5e-5), the scale the bound mapping is
   certified at.  A memory-tight instance's caps above [k] are lowered
   to [k] before the solve, so its bound is cap [k]'s. *)
let prop_dse_one_solve_per_cap =
  QCheck2.Test.make ~name:"dse ends each capped search on its bound"
    ~count:40 ~print:print_dse_instance (dse_instance_gen ())
    (fun instance ->
      let cfg = random_dse_instance instance in
      let caps = [ 1; 2; 3; 4 ] in
      let sink = Obs.Sink.ring ~capacity:100_000 in
      let curve =
        Dse.throughput_curve ~fault:None ~obs:(Obs.Ctx.make ~sink ()) cfg ~caps
      in
      (* Cone solves per candidate: a sequential sweep traces each
         candidate's solves before its [Candidate] event. *)
      let _, per_cap =
        List.fold_left
          (fun (n, acc) { Obs.Trace.event; _ } ->
            match event with
            | Obs.Trace.Solve_end _ -> (n + 1, acc)
            | Obs.Trace.Candidate { index; _ } -> (0, (index, n) :: acc)
            | _ -> (n, acc))
          (0, []) (Obs.Sink.events sink)
      in
      List.iter
        (fun (index, n) ->
          if n <> 1 then
            QCheck2.Test.fail_reportf "cap %d: %d cone solves"
              (List.nth caps index) n)
        per_cap;
      let bound_period cap =
        let cap = match instance with Tight (_, k) -> min cap k | _ -> cap in
        let capped = cap_all cfg cap in
        let b = Budgetbuf.Socp_builder.build_min_period capped in
        let r = Conic.Model.solve b.Budgetbuf.Socp_builder.bound_model in
        let s = r.Conic.Model.value b.Budgetbuf.Socp_builder.scale_var in
        Config.period capped (List.hd (Config.graphs capped))
        *. (s *. (1.0 +. 5e-5))
      in
      List.length per_cap = List.length caps
      && List.for_all
           (fun (p : Dse.curve_point) ->
             match p.outcome with
             | Ok (Some period) ->
               period <= bound_period p.cap
               || QCheck2.Test.fail_reportf "cap %d: %h above the bound %h"
                    p.cap period (bound_period p.cap)
             | Ok None | Error _ ->
               QCheck2.Test.fail_reportf "cap %d: no point" p.cap)
           curve)

(* T1 with room for 3 containers: caps 4-6 would put 4 or more in the
   memory, so the buffer's cap is lowered to 3 before the solve, and
   each of them answers cap 3's point in its one cone solve.  (The
   probe search this replaced answered 2.0257 at cap 4 alone: its cone
   program reserves a container per buffer in the memory row (10).) *)
let memory_tight_t1 () =
  Taskgraph.Parse.config_of_string
    (String.concat "\n"
       [
         "granularity 1";
         "processor p1 replenishment 40 overhead 0";
         "processor p2 replenishment 40 overhead 0";
         "memory m0 capacity 3";
         "taskgraph t1 period 10";
         "  task wa proc p1 wcet 1 weight 1";
         "  task wb proc p2 wcet 1 weight 1";
         "  buffer bab from wa to wb memory m0 container 1 initial 0 weight \
          0.001";
       ])

let test_dse_memory_lowers_caps () =
  let cfg = memory_tight_t1 () in
  let obs = Obs.Ctx.make () in
  let last = ref None in
  match
    Dse.min_period_scale ~fault:None ~obs
      ~on_feasible:(fun m -> last := Some m)
      (cap_all cfg 4)
  with
  | None -> Alcotest.fail "cap 4: expected a feasible scale"
  | Some scale ->
    Alcotest.(check bool)
      "one cone solve" true
      (List.exists
         (String.starts_with ~prefix:"solves: 1 ")
         (Obs.Ctx.report obs));
    let mapped = Option.get !last in
    Alcotest.(check int) "capacity lowered to the memory" 3
      (mapped.Config.capacity (List.hd (Config.all_buffers cfg)));
    Alcotest.(check bool)
      (Printf.sprintf "cap 4 (%.4f) at most 1.3505" (10.0 *. scale))
      true
      (10.0 *. scale <= 1.3505);
    (* The accepted scale is rounded up; one ulp more keeps the period
       at or above the mapping's exact one. *)
    let capped = cap_all cfg 4 in
    List.iter
      (fun g -> Config.set_period capped g (Float.succ (10.0 *. scale)))
      (Config.graphs capped);
    Alcotest.(check bool) "lowered point certifies" true
      (Budgetbuf.Certify.certified (Budgetbuf.Certify.check capped mapped));
    (* A memory that even one container per buffer overfills has no
       mapping, and no cone solve is run to say so. *)
    let none = Taskgraph.Parse.config_of_string
        (String.concat "\n"
           [
             "granularity 1";
             "processor p1 replenishment 40 overhead 0";
             "memory m0 capacity 1";
             "taskgraph t period 10";
             "  task wa proc p1 wcet 1 weight 1";
             "  task wb proc p1 wcet 1 weight 1";
             "  task wc proc p1 wcet 1 weight 1";
             "  buffer b0 from wa to wb memory m0 container 1 initial 0";
             "  buffer b1 from wb to wc memory m0 container 1 initial 0";
           ])
    in
    let obs = Obs.Ctx.make () in
    Alcotest.(check bool) "floors overfill" true
      (Dse.min_period_scale ~fault:None ~obs (cap_all none 5) = None);
    Alcotest.(check bool) "no cone solve" true
      (List.mem "solves: 0 (0 iterations)" (Obs.Ctx.report obs))

let test_dse_envelope_memory_tight () =
  let cfg = memory_tight_t1 () in
  let points =
    Dse.curve_points (Dse.throughput_curve ~fault:None cfg ~caps:[ 1; 2; 3; 4; 5; 6 ])
  in
  let at cap = List.assoc cap points in
  Alcotest.(check int) "every cap feasible" 6 (List.length points);
  List.iter
    (fun cap ->
      check_float 0.0 (Printf.sprintf "cap %d at cap 3's point" cap) (at 3)
        (at cap))
    [ 4; 5; 6 ];
  (* Cap 4 alone answers cap 3's point too: the lowered cap, not the
     envelope, brings it there. *)
  (match Dse.curve_points (Dse.throughput_curve ~fault:None cfg ~caps:[ 4 ]) with
  | [ (4, alone) ] ->
    check_float 0.0 "cap 4 alone at cap 3's point" (at 3) alone
  | _ -> Alcotest.fail "cap 4 alone: expected a point");
  let rec monotone = function
    | (_, p1) :: ((_, p2) :: _ as rest) -> p1 >= p2 && monotone rest
    | [ _ ] | [] -> true
  in
  Alcotest.(check bool) "periods non-increasing in cap" true (monotone points)

let test_dse_throughput_curve_monotone () =
  (* More buffering can only improve the best period (Fig 2a dualised). *)
  let cfg = Workloads.Gen.paper_t1 () in
  let curve = Dse.curve_points (Dse.throughput_curve cfg ~caps:[ 1; 2; 4; 8 ]) in
  Alcotest.(check int) "all caps feasible" 4 (List.length curve);
  let rec monotone = function
    | (_, p1) :: ((_, p2) :: _ as rest) -> p1 >= p2 -. 1e-6 && monotone rest
    | [ _ ] | [] -> true
  in
  Alcotest.(check bool) "periods non-increasing in cap" true (monotone curve)



(* ------------------------------------------------------------------ *)
(* Multi-rate mapping front end                                        *)
(* ------------------------------------------------------------------ *)

module Multirate = Budgetbuf.Multirate

(* Downsampler: src produces 2 per firing, sink consumes 1; one
   iteration = 1 firing of src + 2 of sink per 20 Mcycles. *)
let downsampler () =
  let t = Multirate.create ~granularity:1.0 () in
  let p0 = Multirate.add_processor t ~name:"p0" ~replenishment:40.0 () in
  let p1 = Multirate.add_processor t ~name:"p1" ~replenishment:40.0 () in
  let _m = Multirate.add_memory t ~name:"m0" ~capacity:10_000 in
  Multirate.add_graph t ~name:"ds" ~period:20.0;
  let src = Multirate.add_task t ~graph:"ds" ~name:"src" ~proc:p0 ~wcet:1.0 () in
  let sink = Multirate.add_task t ~graph:"ds" ~name:"sink" ~proc:p1 ~wcet:0.7 () in
  let ch =
    Multirate.add_channel t ~name:"ch" ~src ~production:2 ~dst:sink
      ~consumption:1 ~weight:0.001 ()
  in
  (t, src, sink, ch)

let test_multirate_compile_shape () =
  let t, src, sink, ch = downsampler () in
  match Multirate.compile ~serialize:true t with
  | Error msg -> Alcotest.fail msg
  | Ok prov ->
    let cfg = prov.Multirate.config in
    (* 1 copy of src, 2 of sink; 2 dependency FIFOs (src#1 feeds both
       sink copies); 2 serialisation buffers for sink. *)
    Alcotest.(check int) "copies of src" 1
      (List.length (prov.Multirate.copies src));
    Alcotest.(check int) "copies of sink" 2
      (List.length (prov.Multirate.copies sink));
    Alcotest.(check int) "dependency fifos" 2
      (List.length (prov.Multirate.fifos ch));
    Alcotest.(check int) "total tasks" 3 (List.length (Config.all_tasks cfg));
    Alcotest.(check int) "total buffers" 4
      (List.length (Config.all_buffers cfg))

(* Everything [compile] decides, printed: the compiled configuration,
   the copies of each task and the FIFOs of the channel (name and
   initial tokens) in list order. *)
let compile_listing ~serialize =
  let t, src, sink, ch = downsampler () in
  match Multirate.compile ~serialize t with
  | Error msg -> msg
  | Ok prov ->
    let cfg = prov.Multirate.config in
    let names w =
      String.concat " "
        (List.map (Config.task_name cfg) (prov.Multirate.copies w))
    in
    Format.asprintf "%a@.copies src: %s@.copies sink: %s@.fifos ch: %s@."
      Config.pp cfg (names src) (names sink)
      (String.concat " "
         (List.map
            (fun b ->
              Printf.sprintf "%s/%d" (Config.buffer_name cfg b)
                (Config.initial_tokens cfg b))
            (prov.Multirate.fifos ch)))

let test_multirate_compile_golden () =
  Alcotest.(check string) "independent firings" "granularity 1\n\
     processor p0 replenishment 40 overhead 0\n\
     processor p1 replenishment 40 overhead 0\n\
     memory m0 capacity 10000\n\
     taskgraph ds period 20\n\
    \  task src#1 proc p0 wcet 1 weight 1\n\
    \  task sink#1 proc p1 wcet 0.7 weight 1\n\
    \  task sink#2 proc p1 wcet 0.7 weight 1\n\
    \  buffer ch#1-1 from src#1 to sink#1 memory m0 container 1 initial 0 \
     weight 0.001\n\
    \  buffer ch#1-2 from src#1 to sink#2 memory m0 container 1 initial 0 \
     weight 0.001\n\
     \n\
     copies src: src#1\n\
     copies sink: sink#1 sink#2\n\
     fifos ch: ch#1-2/0 ch#1-1/0\n"
    (compile_listing ~serialize:false);
  Alcotest.(check string) "serialized" "granularity 1\n\
     processor p0 replenishment 40 overhead 0\n\
     processor p1 replenishment 40 overhead 0\n\
     memory m0 capacity 10000\n\
     taskgraph ds period 20\n\
    \  task src#1 proc p0 wcet 1 weight 1\n\
    \  task sink#1 proc p1 wcet 0.7 weight 1\n\
    \  task sink#2 proc p1 wcet 0.7 weight 1\n\
    \  buffer sink.ser1 from sink#1 to sink#2 memory m0 container 1 initial 0 \
     weight 0 max 1\n\
    \  buffer sink.ser2 from sink#2 to sink#1 memory m0 container 1 initial 1 \
     weight 0 max 1\n\
    \  buffer ch#1-1 from src#1 to sink#1 memory m0 container 1 initial 0 \
     weight 0.001\n\
    \  buffer ch#1-2 from src#1 to sink#2 memory m0 container 1 initial 0 \
     weight 0.001\n\
     \n\
     copies src: src#1\n\
     copies sink: sink#1 sink#2\n\
     fifos ch: ch#1-2/0 ch#1-1/0\n"
    (compile_listing ~serialize:true)

let test_multirate_solves_and_simulates () =
  let t, src, sink, ch = downsampler () in
  match Multirate.compile t with
  | Error msg -> Alcotest.fail msg
  | Ok prov -> begin
    let cfg = prov.Multirate.config in
    match Mapping.solve cfg with
    | Error e -> Alcotest.failf "solve failed: %a" Mapping.pp_error e
    | Ok r ->
      Alcotest.(check (list string)) "verified" []
        (List.map Budgetbuf.Violation.to_string
           (Float_verify.verify cfg r.Mapping.mapped));
      (* Aggregates are consistent with the per-copy values. *)
      let total_src = prov.Multirate.task_budget r.Mapping.mapped src in
      Alcotest.(check bool) "src budget positive" true (total_src > 0.0);
      let sink_copies = prov.Multirate.copies sink in
      let per_copy_sum =
        List.fold_left
          (fun acc c -> acc +. r.Mapping.mapped.Config.budget c)
          0.0 sink_copies
      in
      check_float 1e-9 "aggregate = sum over copies" per_copy_sum
        (prov.Multirate.task_budget r.Mapping.mapped sink);
      Alcotest.(check bool) "channel capacity >= fifo count" true
        (prov.Multirate.channel_capacity r.Mapping.mapped ch >= 2);
      (* The compiled configuration simulates and meets the period. *)
      match Tdm_sim.Sim.run cfg r.Mapping.mapped ~iterations:500 () with
      | Error e -> Alcotest.fail e
      | Ok report ->
        List.iter
          (fun g ->
            Alcotest.(check bool) "meets iteration period" true
              (report.Tdm_sim.Sim.graph_period g
              <= Config.period cfg g +. 0.5))
          (Config.graphs cfg)
  end

let downsampler_loose () =
  (* Period generous enough for the strict serialisation ring, whose
     one token costs a worst-case round trip over both copies. *)
  let t = Multirate.create ~granularity:1.0 () in
  let p0 = Multirate.add_processor t ~name:"p0" ~replenishment:40.0 () in
  let p1 = Multirate.add_processor t ~name:"p1" ~replenishment:40.0 () in
  let _m = Multirate.add_memory t ~name:"m0" ~capacity:10_000 in
  Multirate.add_graph t ~name:"ds" ~period:200.0;
  let src = Multirate.add_task t ~graph:"ds" ~name:"src" ~proc:p0 ~wcet:1.0 () in
  let sink = Multirate.add_task t ~graph:"ds" ~name:"sink" ~proc:p1 ~wcet:0.7 () in
  let ch =
    Multirate.add_channel t ~name:"ch" ~src ~production:2 ~dst:sink
      ~consumption:1 ~weight:0.001 ()
  in
  (t, src, sink, ch)

let test_multirate_serialization_order () =
  (* Simulated executions of sink#1 and sink#2 must alternate: every
     completion of #2 is preceded by one of #1. *)
  let t, _, sink, _ = downsampler_loose () in
  match Multirate.compile ~serialize:true t with
  | Error msg -> Alcotest.fail msg
  | Ok prov -> begin
    let cfg = prov.Multirate.config in
    match Mapping.solve cfg with
    | Error e -> Alcotest.failf "solve failed: %a" Mapping.pp_error e
    | Ok r -> begin
      match Tdm_sim.Sim.run cfg r.Mapping.mapped ~iterations:100 () with
      | Error e -> Alcotest.fail e
      | Ok report ->
        let c1, c2 =
          match prov.Multirate.copies sink with
          | [ a; b ] ->
            (report.Tdm_sim.Sim.task_executions a,
             report.Tdm_sim.Sim.task_executions b)
          | _ -> Alcotest.fail "expected two copies"
        in
        Array.iteri
          (fun i (claim2, _) ->
            let _, done1 = c1.(i) in
            if claim2 < done1 -. 1e-9 then
              Alcotest.fail "copy 2 started before copy 1 finished")
          c2
    end
  end

let test_multirate_tight_serialization_infeasible () =
  (* µ = 20 cannot pay for the strict one-token ring (round trip
     ≈ 2(̺ − β) > 60 at feasible budgets): the solver must report a
     clean infeasibility, not a stall. *)
  let t, _, _, _ = downsampler () in
  match Multirate.compile ~serialize:true t with
  | Error msg -> Alcotest.fail msg
  | Ok prov -> begin
    match Mapping.solve prov.Multirate.config with
    | Error (Mapping.Infeasible _) -> ()
    | Error e -> Alcotest.failf "wrong error: %a" Mapping.pp_error e
    | Ok _ -> Alcotest.fail "expected infeasible"
  end

let test_multirate_inconsistent () =
  let t = Multirate.create ~granularity:1.0 () in
  let p = Multirate.add_processor t ~name:"p" ~replenishment:40.0 () in
  let _m = Multirate.add_memory t ~name:"m" ~capacity:100 in
  Multirate.add_graph t ~name:"g" ~period:10.0;
  let a = Multirate.add_task t ~graph:"g" ~name:"a" ~proc:p ~wcet:1.0 () in
  let b = Multirate.add_task t ~graph:"g" ~name:"b" ~proc:p ~wcet:1.0 () in
  ignore
    (Multirate.add_channel t ~name:"c1" ~src:a ~production:1 ~dst:b
       ~consumption:1 ());
  ignore
    (Multirate.add_channel t ~name:"c2" ~src:b ~production:2 ~dst:a
       ~consumption:1 ~initial_tokens:4 ());
  match Multirate.compile t with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected inconsistency"



(* ------------------------------------------------------------------ *)
(* Report                                                              *)
(* ------------------------------------------------------------------ *)

module Report = Budgetbuf.Report

let test_report_contents () =
  let cfg = Workloads.Gen.paper_t1 () in
  let r = solve_exn cfg in
  let report = Report.build cfg r.Mapping.mapped in
  Alcotest.(check int) "two processors" 2
    (List.length report.Report.processors);
  Alcotest.(check int) "one memory" 1 (List.length report.Report.memories);
  Alcotest.(check bool) "certified" true
    (Budgetbuf.Certify.certified report.Report.certificate);
  List.iter
    (fun p ->
      Alcotest.(check bool) "utilisation in (0, 1]" true
        (p.Report.utilisation > 0.0 && p.Report.utilisation <= 1.0))
    report.Report.processors;
  let g = List.hd report.Report.graphs in
  Alcotest.(check bool) "latency present" true (g.Report.latency <> None);
  Alcotest.(check bool) "critical cycle present" true
    (g.Report.critical <> None)

let test_report_flags_violations () =
  let cfg = Workloads.Gen.paper_t1 () in
  let mapped =
    { Config.budget = (fun _ -> 4.0); Config.capacity = (fun _ -> 2) }
  in
  let report = Report.build cfg mapped in
  Alcotest.(check bool) "refuted" false
    (Budgetbuf.Certify.certified report.Report.certificate);
  (* The renderer must not raise and must list the violation instead
     of the verification line. *)
  let text = Format.asprintf "%a" (Report.pp cfg) report in
  let contains needle =
    let ln = String.length needle and lh = String.length text in
    let rec at i = i + ln <= lh && (String.sub text i ln = needle || at (i + 1)) in
    at 0
  in
  Alcotest.(check bool) "violation rendered" true
    (contains "violations:\n  task graph t1: no periodic schedule");
  Alcotest.(check bool) "no ok line" false (contains "verification: ok")



(* ------------------------------------------------------------------ *)
(* Error paths of the auxiliary modules                                *)
(* ------------------------------------------------------------------ *)

let test_error_paths () =
  let cfg = Workloads.Gen.paper_t1 () in
  (* Config.copy: invalid period scale. *)
  Alcotest.(check bool) "scale 0 rejected" true
    (match Config.copy ~period_scale:0.0 cfg with
    | exception Invalid_argument _ -> true
    | _ -> false);
  (* Pareto: invalid steps. *)
  Alcotest.(check bool) "steps 0 rejected" true
    (match Pareto.frontier ~steps:0 cfg with
    | exception Invalid_argument _ -> true
    | _ -> false);
  (* Two_phase: buffer_first fallback < 1. *)
  Alcotest.(check bool) "fallback 0 rejected" true
    (match Budgetbuf.Two_phase.buffer_first ~fallback:0 cfg with
    | exception Invalid_argument _ -> true
    | _ -> false);
  (* Two_phase: alternating max_rounds < 1 is a bad argument, not an
     infeasibility verdict. *)
  Alcotest.(check bool) "alternating rounds 0 rejected" true
    (match Budgetbuf.Two_phase.alternating ~max_rounds:0 cfg with
    | exception Invalid_argument _ -> true
    | _ -> false);
  (* Binding: exhaustive limit < 1 reports an error. *)
  Alcotest.(check bool) "limit 0 errors" true
    (match Binding.optimize ~strategy:(Binding.Exhaustive 0) cfg with
    | Error _ -> true
    | Ok _ -> false);
  (* Sensitivity: task of another graph. *)
  let mapped =
    { Config.budget = (fun _ -> 4.0); Config.capacity = (fun _ -> 10) }
  in
  let cfg2 = Workloads.Gen.paper_t2 () in
  Alcotest.(check bool) "foreign task rejected" true
    (match
       Sensitivity.budget_slack cfg2
         (Config.find_graph cfg2 "t2")
         mapped
         (Config.find_task cfg2 "wa")
     with
    | exception Invalid_argument _ -> false (* same-graph task is fine *)
    | _ -> true);
  (* VCD: invalid resolution. *)
  (match Tdm_sim.Sim.run cfg mapped ~iterations:10 () with
  | Error e -> Alcotest.fail e
  | Ok report ->
    Alcotest.(check bool) "per_mcycle 0 rejected" true
      (match
         Tdm_sim.Vcd.dump ~per_mcycle:0 cfg mapped report
           (Format.formatter_of_buffer (Buffer.create 16))
       with
      | exception Invalid_argument _ -> true
      | _ -> false));
  (* Slp: max_iterations < 1. *)
  Alcotest.(check bool) "slp iterations 0 rejected" true
    (match Budgetbuf.Slp.solve ~max_iterations:0 cfg with
    | exception Invalid_argument _ -> true
    | _ -> false)


let () =
  Alcotest.run "extensions"
    [
      ( "rebind",
        [
          Alcotest.test_case "identity" `Quick test_rebind_identity;
          Alcotest.test_case "moves task" `Quick test_rebind_moves_task;
          Alcotest.test_case "preserves bounds" `Quick
            test_rebind_preserves_bounds;
        ] );
      ( "binding",
        [
          Alcotest.test_case "greedy feasible" `Quick
            test_binding_greedy_feasible;
          Alcotest.test_case "first fit feasible" `Quick
            test_binding_first_fit_feasible;
          Alcotest.test_case "exhaustive beats greedy" `Quick
            test_binding_exhaustive_beats_or_ties_greedy;
          Alcotest.test_case "exhaustive limit" `Quick
            test_binding_exhaustive_limit;
          Alcotest.test_case "infeasible reported" `Quick
            test_binding_infeasible_reported;
        ] );
      ( "memory-binding",
        [
          Alcotest.test_case "rebind moves buffer" `Quick
            test_memory_rebind_moves_buffer;
          Alcotest.test_case "greedy spreads" `Quick test_memory_greedy_spreads;
          Alcotest.test_case "exhaustive" `Quick
            test_memory_exhaustive_finds_best;
          Alcotest.test_case "infeasible" `Quick test_memory_infeasible;
        ] );
      ( "pareto",
        [
          Alcotest.test_case "frontier shape" `Quick test_pareto_frontier_shape;
          Alcotest.test_case "extremes" `Quick test_pareto_extremes;
          Alcotest.test_case "restores weights" `Quick
            test_pareto_restores_weights;
          Alcotest.test_case "infeasible empty" `Quick
            test_pareto_infeasible_empty;
        ] );
      ( "latency",
        [
          Alcotest.test_case "t1 closed form" `Quick test_latency_t1;
          Alcotest.test_case "infeasible" `Quick test_latency_none_when_infeasible;
          Alcotest.test_case "monotone in budget" `Quick
            test_latency_bigger_budget_shrinks;
          Alcotest.test_case "endpoint detection" `Quick
            test_latency_chain_requires_unique_endpoints;
          Alcotest.test_case "solver mapping" `Quick test_latency_solver_mapping;
        ] );
      ( "sensitivity",
        [
          Alcotest.test_case "throughput slack" `Quick
            test_sensitivity_slack_t1;
          Alcotest.test_case "critical cycle" `Quick
            test_sensitivity_critical_cycle_t1;
          Alcotest.test_case "budget slack" `Quick
            test_sensitivity_budget_slack;
          Alcotest.test_case "infeasible mapping" `Quick
            test_sensitivity_infeasible_mapping;
        ] );
      ( "multirate",
        [
          Alcotest.test_case "compile shape" `Quick
            test_multirate_compile_shape;
          Alcotest.test_case "compile golden" `Quick
            test_multirate_compile_golden;
          Alcotest.test_case "solve and simulate" `Quick
            test_multirate_solves_and_simulates;
          Alcotest.test_case "serialization order" `Quick
            test_multirate_serialization_order;
          Alcotest.test_case "tight serialization infeasible" `Quick
            test_multirate_tight_serialization_infeasible;
          Alcotest.test_case "inconsistent" `Quick test_multirate_inconsistent;
        ] );
      ( "dse",
        [
          Alcotest.test_case "copy scales periods" `Quick
            test_copy_period_scale;
          Alcotest.test_case "min period t1" `Quick test_dse_min_period_t1;
          Alcotest.test_case "structural dead end" `Quick
            test_dse_min_period_infeasible_structure;
          Alcotest.test_case "throughput curve" `Quick
            test_dse_throughput_curve_monotone;
          Alcotest.test_case "accepts only certified probes" `Quick
            test_dse_accepts_only_certified;
          Alcotest.test_case "cap below initial tokens" `Quick
            test_dse_cap_below_tokens;
          Alcotest.test_case "split-join cap 2 no worse than cap 1" `Quick
            test_dse_splitjoin_cap2_no_worse;
          Alcotest.test_case "no worse than the bisection" `Quick
            test_dse_no_worse_than_bisection;
          Alcotest.test_case "binding memory lowers the caps" `Quick
            test_dse_memory_lowers_caps;
          Alcotest.test_case "monotone envelope, memory-tight T1" `Quick
            test_dse_envelope_memory_tight;
        ] );
      ( "report",
        [
          Alcotest.test_case "contents" `Quick test_report_contents;
          Alcotest.test_case "flags violations" `Quick
            test_report_flags_violations;
        ] );
      ( "error-paths",
        [ Alcotest.test_case "auxiliary modules" `Quick test_error_paths ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_rebind_preserves_solution;
            prop_exhaustive_bounds_heuristics;
            prop_pareto_points_feasible;
            prop_budget_slack_consistent;
            prop_budget_probe_matches_schedulable;
            prop_dse_points_recertify;
            prop_dse_one_solve_per_cap;
          ] );
    ]
