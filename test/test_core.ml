(* Tests for the paper's core algorithm: SRDF construction (§II-C),
   Algorithm 1, conservative rounding, trade-off sweeps and the
   two-phase baselines. *)

module Config = Taskgraph.Config
module Srdf = Dataflow.Srdf
module Mapping = Budgetbuf.Mapping
module Socp_builder = Budgetbuf.Socp_builder
module Tradeoff = Budgetbuf.Tradeoff
module Two_phase = Budgetbuf.Two_phase

let check_float eps = Alcotest.(check (float eps))

(* Violations as their report strings, for (list string) checks. *)
let vnotes = List.map Budgetbuf.Violation.to_string

(* Closed form for the paper's T1 (derived in DESIGN.md §5): the
   critical cycle gives 2(40 − β + 40/β) ≤ 10·d, clamped below by the
   self-loop bound β ≥ ̺χ/µ = 4. *)
let t1_analytic_budget d =
  let d = float_of_int d in
  Float.max 4.0
    (((80.0 -. (10.0 *. d)) +. sqrt ((((10.0 *. d) -. 80.0) ** 2.0) +. 640.0))
    /. 4.0)

let t1_with_cap cap =
  let cfg = Workloads.Gen.paper_t1 () in
  Config.set_max_capacity cfg (Config.find_buffer cfg "bab") (Some cap);
  cfg

let solve_exn cfg =
  match Mapping.solve cfg with
  | Ok r -> r
  | Error e -> Alcotest.failf "solve failed: %a" Mapping.pp_error e

(* ------------------------------------------------------------------ *)
(* SRDF construction (§II-C)                                           *)
(* ------------------------------------------------------------------ *)

let srdf_of cfg g ~budget ~capacity =
  Budgetbuf.Certify.srdf cfg g
    { Config.budget = (fun _ -> budget); Config.capacity = (fun _ -> capacity) }

let test_model_structure () =
  let cfg = Workloads.Gen.paper_t1 () in
  let g = Config.find_graph cfg "t1" in
  let srdf =
    match srdf_of cfg g ~budget:10.0 ~capacity:3 with
    | Ok srdf -> srdf
    | Error v -> Alcotest.fail (Budgetbuf.Violation.to_string v)
  in
  (* 2 actors per task; 2 queues per task + 2 per buffer. *)
  Alcotest.(check int) "actors" 4 (Srdf.num_actors srdf);
  Alcotest.(check int) "queues" 6 (Srdf.num_edges srdf);
  let actor = Srdf.find_actor srdf in
  (* ρ(v1) = ̺ − β = 30, ρ(v2) = ̺χ/β = 4. *)
  check_float 1e-12 "rho1" 30.0 (Srdf.duration srdf (actor "wa.1"));
  check_float 1e-12 "rho2" 4.0 (Srdf.duration srdf (actor "wa.2"));
  (* The queue between two actors and its tokens. *)
  let tokens src dst =
    match
      List.filter
        (fun e -> Srdf.edge_dst srdf e = actor dst)
        (Srdf.out_edges srdf (actor src))
    with
    | [ e ] -> Srdf.tokens srdf e
    | _ -> Alcotest.failf "expected one queue %s -> %s" src dst
  in
  (* Self-loop has one token, transition zero. *)
  Alcotest.(check int) "self tokens" 1 (tokens "wa.2" "wa.2");
  Alcotest.(check int) "transition tokens" 0 (tokens "wa.1" "wa.2");
  (* Data queue a2 → b1 carries ι = 0, space queue b2 → a1 γ − ι = 3. *)
  Alcotest.(check int) "data tokens" 0 (tokens "wa.2" "wb.1");
  Alcotest.(check int) "space tokens" 3 (tokens "wb.2" "wa.1")

let test_model_rejects_bad_budget () =
  let cfg = Workloads.Gen.paper_t1 () in
  let g = Config.find_graph cfg "t1" in
  Alcotest.(check bool) "budget over interval" true
    (Result.is_error (srdf_of cfg g ~budget:41.0 ~capacity:2));
  Alcotest.(check bool) "non-positive budget" true
    (Result.is_error (srdf_of cfg g ~budget:0.0 ~capacity:2))

let test_throughput_ok_known_point () =
  (* d = 10, β = 4 is exactly feasible (MCR = 10): the exact predicate
     and the float oracle agree on both sides of it. *)
  let cfg = Workloads.Gen.paper_t1 () in
  let g = Config.find_graph cfg "t1" in
  let mapped budget capacity =
    { Config.budget = (fun _ -> budget); Config.capacity = (fun _ -> capacity) }
  in
  List.iter
    (fun (msg, want, m) ->
      Alcotest.(check bool) msg want (Budgetbuf.Certify.schedulable cfg g m);
      Alcotest.(check bool) (msg ^ " (float oracle)") want
        (Float_verify.throughput_ok cfg g m))
    [
      ("β=4, γ=10 feasible", true, mapped 4.0 10);
      ("β=4, γ=9 infeasible", false, mapped 4.0 9);
      ("β=3.9, γ=10 infeasible", false, mapped 3.9 10);
    ]

let test_min_feasible_period () =
  let cfg = Workloads.Gen.paper_t1 () in
  let g = Config.find_graph cfg "t1" in
  let mapped =
    { Config.budget = (fun _ -> 4.0); Config.capacity = (fun _ -> 10) }
  in
  match Budgetbuf.Certify.max_cycle_ratio cfg g mapped with
  | Some c ->
    Alcotest.(check string) "MCR at the paper's optimum, exactly" "10"
      (Exact.Rat.to_string c.Budgetbuf.Certify.ratio)
  | None -> Alcotest.fail "expected a period"

(* ------------------------------------------------------------------ *)
(* Algorithm 1 on the paper's T1 (Figure 2a oracle)                    *)
(* ------------------------------------------------------------------ *)

let test_t1_matches_analytic () =
  List.iter
    (fun d ->
      let r = solve_exn (t1_with_cap d) in
      let cfg = t1_with_cap d in
      ignore cfg;
      let budgets =
        List.map
          (fun w -> r.Mapping.continuous.Socp_builder.budget w)
          (Config.all_tasks (t1_with_cap d))
      in
      let sum = List.fold_left ( +. ) 0.0 budgets in
      let expected = 2.0 *. t1_analytic_budget d in
      Alcotest.(check bool)
        (Printf.sprintf "d=%d: sum of budgets %.4f vs analytic %.4f" d sum
           expected)
        true
        (Float.abs (sum -. expected) <= 1e-3 *. expected))
    [ 1; 2; 3; 5; 8; 10 ]

let test_t1_capacity_ten_minimises () =
  (* The paper: "A buffer capacity of 10 containers minimises the
     budgets" — at d ≥ 10 the budget hits the self-loop bound 4. *)
  let r10 = solve_exn (t1_with_cap 10) in
  let r12 = solve_exn (t1_with_cap 12) in
  let budget r =
    let cfg = Workloads.Gen.paper_t1 () in
    r.Mapping.continuous.Socp_builder.budget (Config.find_task cfg "wa")
  in
  check_float 1e-3 "β(10) = 4" 4.0 (budget r10);
  check_float 1e-3 "β(12) = 4" 4.0 (budget r12);
  (* And the capacity actually used never exceeds 10. *)
  let cfg = t1_with_cap 12 in
  let r = solve_exn cfg in
  Alcotest.(check bool) "γ ≤ 10" true
    (r.Mapping.mapped.Config.capacity (Config.find_buffer cfg "bab") <= 10)

let test_t1_rounding_verifies () =
  List.iter
    (fun d ->
      let cfg = t1_with_cap d in
      let r = solve_exn cfg in
      Alcotest.(check (list string))
        (Printf.sprintf "d=%d verification" d)
        [] (vnotes (Float_verify.verify cfg r.Mapping.mapped)))
    [ 1; 4; 7; 10 ]

let test_t1_relaxation_tight () =
  (* λ·β′ = 1 at the optimum (the cone constraint is active whenever
     the budget weight is positive) — DESIGN.md's ablation claim. *)
  let cfg = t1_with_cap 5 in
  let builder = Socp_builder.build cfg in
  let result = Conic.Model.solve builder.Socp_builder.model in
  let c = Socp_builder.extract cfg builder result in
  List.iter
    (fun w ->
      let product =
        c.Socp_builder.lambda w *. c.Socp_builder.budget w
      in
      Alcotest.(check bool)
        (Printf.sprintf "λ·β′ = %.6f ≈ 1" product)
        true
        (product >= 1.0 -. 1e-6 && product <= 1.0 +. 1e-3))
    (Config.all_tasks cfg)

let test_t1_infeasible_cap_zero_memory () =
  (* A memory too small for even one container per buffer must be
     reported as infeasible. *)
  let cfg = Config.create ~granularity:1.0 () in
  let p1 = Config.add_processor cfg ~name:"p1" ~replenishment:40.0 () in
  let p2 = Config.add_processor cfg ~name:"p2" ~replenishment:40.0 () in
  let m = Config.add_memory cfg ~name:"m" ~capacity:0 in
  let g = Config.add_graph cfg ~name:"t" ~period:10.0 () in
  let wa = Config.add_task cfg g ~name:"wa" ~proc:p1 ~wcet:1.0 () in
  let wb = Config.add_task cfg g ~name:"wb" ~proc:p2 ~wcet:1.0 () in
  ignore (Config.add_buffer cfg g ~name:"b" ~src:wa ~dst:wb ~memory:m ());
  match Mapping.solve cfg with
  | Error (Mapping.Infeasible _) -> ()
  | Error e -> Alcotest.failf "wrong error: %a" Mapping.pp_error e
  | Ok _ -> Alcotest.fail "expected infeasible"

let test_t1_infeasible_tight_period () =
  (* µ < χ can never be met. *)
  let cfg = Config.create ~granularity:1.0 () in
  let p1 = Config.add_processor cfg ~name:"p1" ~replenishment:40.0 () in
  let p2 = Config.add_processor cfg ~name:"p2" ~replenishment:40.0 () in
  let m = Config.add_memory cfg ~name:"m" ~capacity:100 in
  let g = Config.add_graph cfg ~name:"t" ~period:0.5 () in
  let wa = Config.add_task cfg g ~name:"wa" ~proc:p1 ~wcet:1.0 () in
  let wb = Config.add_task cfg g ~name:"wb" ~proc:p2 ~wcet:1.0 () in
  ignore (Config.add_buffer cfg g ~name:"b" ~src:wa ~dst:wb ~memory:m ());
  match Mapping.solve cfg with
  | Error (Mapping.Infeasible _) -> ()
  | Error e -> Alcotest.failf "wrong error: %a" Mapping.pp_error e
  | Ok _ -> Alcotest.fail "expected infeasible"

let test_objective_weights_steer () =
  (* Buffer-dominant weights must yield the smallest buffers (γ = 1 is
     impossible here — the cycle needs ≥ ⌈(80−2β+80/β)/10⌉ with β ≤ 39;
     minimum buffer is achieved at max budget). *)
  let cfg = Workloads.Gen.paper_t1 () in
  let bab = Config.find_buffer cfg "bab" in
  List.iter (fun w -> Config.set_task_weight cfg w 0.001) (Config.all_tasks cfg);
  Config.set_buffer_weight cfg bab 1.0;
  let r = solve_exn cfg in
  let gamma = r.Mapping.mapped.Config.capacity bab in
  (* With β′ = 39 (granule reserve): cycle needs δ ≥ (80 − 78 + 80/39)/10
     ≈ 0.405 → γ = 1. *)
  Alcotest.(check int) "buffer-dominant weights give γ = 1" 1 gamma

(* ------------------------------------------------------------------ *)
(* T2 topology dependence (Figure 3 oracle)                            *)
(* ------------------------------------------------------------------ *)

let t2_with_cap cap =
  let cfg = Workloads.Gen.paper_t2 () in
  List.iter
    (fun b -> Config.set_max_capacity cfg b (Some cap))
    (Config.all_buffers cfg);
  cfg

let test_t2_middle_task_keeps_larger_budget () =
  (* The budget of wb interacts with two buffers, so wa and wc shed
     budget first (the paper's Figure 3). *)
  List.iter
    (fun d ->
      let cfg = t2_with_cap d in
      let r = solve_exn cfg in
      let budget name =
        r.Mapping.continuous.Socp_builder.budget (Config.find_task cfg name)
      in
      Alcotest.(check bool)
        (Printf.sprintf "d=%d: β(wb) ≥ β(wa)" d)
        true
        (budget "wb" >= budget "wa" -. 1e-4);
      Alcotest.(check bool)
        (Printf.sprintf "d=%d: β(wa) ≈ β(wc)" d)
        true
        (Float.abs (budget "wa" -. budget "wc") <= 1e-2 *. budget "wa"))
    [ 2; 4; 6; 8 ]

let test_t2_strictly_separated_mid_range () =
  (* In the mid range the separation is strict. *)
  let cfg = t2_with_cap 5 in
  let r = solve_exn cfg in
  let budget name =
    r.Mapping.continuous.Socp_builder.budget (Config.find_task cfg name)
  in
  Alcotest.(check bool) "β(wb) > β(wa) + 1" true
    (budget "wb" > budget "wa" +. 1.0)

let test_t2_converges_to_self_loop_bound () =
  let cfg = t2_with_cap 10 in
  let r = solve_exn cfg in
  List.iter
    (fun w ->
      check_float 1e-2 "β = 4 at d = 10" 4.0
        (r.Mapping.continuous.Socp_builder.budget w))
    (Config.all_tasks cfg)

(* ------------------------------------------------------------------ *)
(* Trade-off sweeps                                                    *)
(* ------------------------------------------------------------------ *)

let test_sweep_monotone_budgets () =
  let cfg = Workloads.Gen.paper_t1 () in
  let wa = Config.find_task cfg "wa" in
  let points =
    Tradeoff.capacity_sweep cfg
      ~buffers:(Config.all_buffers cfg)
      ~caps:[ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ]
  in
  let budgets = List.filter_map (fun p -> Tradeoff.budget_of p wa) points in
  Alcotest.(check int) "all solved" 10 (List.length budgets);
  let rec monotone = function
    | b1 :: (b2 :: _ as rest) -> b1 >= b2 -. 1e-6 && monotone rest
    | [ _ ] | [] -> true
  in
  Alcotest.(check bool) "budgets non-increasing in capacity" true
    (monotone budgets)

let test_sweep_deltas_positive_decreasing () =
  (* Figure 2(b): the marginal budget reduction shrinks with capacity
     (convexity of the trade-off). *)
  let cfg = Workloads.Gen.paper_t1 () in
  let wa = Config.find_task cfg "wa" in
  let points =
    Tradeoff.capacity_sweep cfg
      ~buffers:(Config.all_buffers cfg)
      ~caps:[ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ]
  in
  let deltas = Tradeoff.budget_deltas points wa in
  Alcotest.(check int) "nine deltas" 9 (List.length deltas);
  List.iter
    (fun (c, d) ->
      Alcotest.(check bool) (Printf.sprintf "delta at %d positive" c) true
        (d > 0.0))
    deltas;
  let rec decreasing = function
    | (_, d1) :: ((_, d2) :: _ as rest) -> d1 >= d2 -. 1e-4 && decreasing rest
    | [ _ ] | [] -> true
  in
  Alcotest.(check bool) "deltas decreasing" true (decreasing deltas)

let test_sweep_restores_bounds () =
  let cfg = Workloads.Gen.paper_t1 () in
  let bab = Config.find_buffer cfg "bab" in
  Config.set_max_capacity cfg bab (Some 42);
  ignore
    (Tradeoff.capacity_sweep cfg ~buffers:[ bab ] ~caps:[ 1; 2 ]);
  Alcotest.(check (option int)) "bound restored" (Some 42)
    (Config.max_capacity cfg bab)

(* ------------------------------------------------------------------ *)
(* Two-phase baselines                                                 *)
(* ------------------------------------------------------------------ *)

let test_budget_first_fair_share_works_unbounded () =
  let cfg = Workloads.Gen.paper_t1 () in
  match Two_phase.budget_first ~policy:Two_phase.Fair_share cfg with
  | Error e -> Alcotest.failf "fair share failed: %a" Two_phase.pp_error e
  | Ok r ->
    Alcotest.(check (list string))
      "verifies" []
      (vnotes (Float_verify.verify cfg r.Two_phase.mapped))

let test_budget_first_min_budget_false_negative () =
  (* With capacity capped at 6, the joint flow succeeds but the
     min-budget two-phase flow is infeasible: the false negative of
     Section I. *)
  let cfg = t1_with_cap 6 in
  (match Mapping.solve cfg with
  | Ok r -> Alcotest.(check (list string)) "joint ok" [] (vnotes (Float_verify.verify cfg r.Mapping.mapped))
  | Error e -> Alcotest.failf "joint flow failed: %a" Mapping.pp_error e);
  match Two_phase.budget_first ~policy:Two_phase.Min_budget cfg with
  | Error (Two_phase.Infeasible _) -> ()
  | Error e -> Alcotest.failf "wrong error: %a" Two_phase.pp_error e
  | Ok _ -> Alcotest.fail "expected the two-phase false negative"

let test_budget_first_min_budget_needs_big_buffers () =
  (* Unbounded buffers: min-budget phase 1 succeeds but needs the
     10-container buffer (the cheapest-budget corner of the curve). *)
  let cfg = Workloads.Gen.paper_t1 () in
  match Two_phase.budget_first ~policy:Two_phase.Min_budget cfg with
  | Error e -> Alcotest.failf "failed: %a" Two_phase.pp_error e
  | Ok r ->
    Alcotest.(check int) "γ = 10" 10
      (r.Two_phase.mapped.Config.capacity (Config.find_buffer cfg "bab"))

let test_buffer_first_at_bound () =
  let cfg = t1_with_cap 5 in
  match Two_phase.buffer_first ~policy:Two_phase.At_bound cfg with
  | Error e -> Alcotest.failf "failed: %a" Two_phase.pp_error e
  | Ok r ->
    (* Budgets must match the joint optimum at cap 5 (the capacity is
       pinned to the bound, which the joint flow also saturates). *)
    let joint = solve_exn cfg in
    let cfg' = cfg in
    List.iter
      (fun w ->
        let two = r.Two_phase.mapped.Config.budget w
        and one = joint.Mapping.mapped.Config.budget w in
        Alcotest.(check bool)
          (Printf.sprintf "budget of %s within one granule"
             (Config.task_name cfg' w))
          true
          (Float.abs (two -. one) <= 1.0 +. 1e-9))
      (Config.all_tasks cfg')

let test_buffer_first_uniform_double_buffering () =
  let cfg = Workloads.Gen.paper_t1 () in
  match Two_phase.buffer_first ~policy:(Two_phase.Uniform 2) cfg with
  | Error e -> Alcotest.failf "failed: %a" Two_phase.pp_error e
  | Ok r ->
    Alcotest.(check int) "γ = 2" 2
      (r.Two_phase.mapped.Config.capacity (Config.find_buffer cfg "bab"));
    Alcotest.(check (list string))
      "verifies" []
      (vnotes (Float_verify.verify cfg r.Two_phase.mapped))

let test_joint_no_worse_than_two_phase () =
  (* On the weighted objective the joint optimum is never worse than
     any two-phase outcome. *)
  let check policy =
    let cfg = t1_with_cap 8 in
    let joint = solve_exn cfg in
    match Two_phase.budget_first ~policy cfg with
    | Error _ -> () (* infeasible two-phase: trivially no better *)
    | Ok r ->
      Alcotest.(check bool)
        "joint ≤ two-phase objective" true
        (joint.Mapping.rounded_objective <= r.Two_phase.objective +. 1e-6)
  in
  check Two_phase.Min_budget;
  check Two_phase.Fair_share

let test_alternating_converges () =
  let cfg = t1_with_cap 8 in
  match Two_phase.alternating cfg with
  | Error e -> Alcotest.failf "alternating failed: %a" Two_phase.pp_error e
  | Ok r ->
    Alcotest.(check bool) "ran at least one round" true (r.Two_phase.rounds >= 2);
    Alcotest.(check (list string))
      "verifies" []
      (vnotes (Float_verify.verify cfg r.Two_phase.mapped));
    let joint = solve_exn cfg in
    Alcotest.(check bool) "joint ≤ alternating" true
      (joint.Mapping.rounded_objective <= r.Two_phase.objective +. 1e-6)

(* The simplex baselines bit for bit: buffer-LP capacities at two
   budget levels (fractions of the even split of each processor), the
   [budget_first] objective under both policies, the [alternating]
   objective and rounds and the [Slp] objective and iterations, floats
   in hex.  Any reordering of the LP's variables, rows or float
   expressions moves one of these lines. *)
let simplex_lines name cfg =
  let hex = Printf.sprintf "%h" in
  let lp frac =
    let budget w =
      let p = Config.task_proc cfg w in
      frac
      *. (Config.replenishment cfg p -. Config.overhead cfg p)
      /. float_of_int (List.length (Config.tasks_on cfg p))
    in
    match Two_phase.buffer_sizing_lp cfg ~budget with
    | Error e -> Format.asprintf "%a" Two_phase.pp_error e
    | Ok capacity ->
      String.concat " "
        (List.map
           (fun b -> string_of_int (capacity b))
           (Config.all_buffers cfg))
  in
  let flow = function
    | Error e -> Format.asprintf "%a" Two_phase.pp_error e
    | Ok r -> Printf.sprintf "%s rounds %d" (hex r.Two_phase.objective) r.rounds
  in
  let slp =
    match Budgetbuf.Slp.solve cfg with
    | Error e -> Format.asprintf "%a" Budgetbuf.Slp.pp_error e
    | Ok o ->
      Printf.sprintf "%s iterations %d" (hex o.Budgetbuf.Slp.objective)
        o.iterations
  in
  List.map
    (fun (what, v) -> Printf.sprintf "%s %s: %s" name what v)
    [
      ("lp 0.4", lp 0.4);
      ("lp 0.8", lp 0.8);
      ("min", flow (Two_phase.budget_first ~policy:Two_phase.Min_budget cfg));
      ("fair", flow (Two_phase.budget_first ~policy:Two_phase.Fair_share cfg));
      ("alternating", flow (Two_phase.alternating cfg));
      ("slp", slp);
    ]

let test_simplex_baselines_pinned () =
  let lines =
    List.concat_map
      (fun (name, cfg) -> simplex_lines name cfg)
      [
        ("t1", Workloads.Gen.paper_t1 ());
        ("t2", Workloads.Gen.paper_t2 ());
        ("car-radio", Workloads.Apps.car_radio ());
        ("chain8", Workloads.Gen.chain ~n:8 ());
      ]
  in
  Alcotest.(check (list string))
    "simplex baselines"
    [
      "t1 lp 0.4: 6";
      "t1 lp 0.8: 2";
      "t1 min: 0x1.0051eb851eb85p+3 rounds 2";
      "t1 fair: 0x1.40010624dd2f2p+6 rounds 2";
      "t1 alternating: 0x1.28010624dd2f2p+6 rounds 2";
      "t1 slp: 0x1.0051eb851eb85p+3 iterations 2";
      "t2 lp 0.4: 6 6";
      "t2 lp 0.8: 2 2";
      "t2 min: 0x1.80a3d70a3d70ap+3 rounds 2";
      "t2 fair: 0x1.e0020c49ba5e3p+6 rounds 2";
      "t2 alternating: 0x1.ac020c49ba5e3p+6 rounds 2";
      "t2 slp: 0x1.80a3d70a3d70ap+3 iterations 2";
      "car-radio lp 0.4: 5 2";
      "car-radio lp 0.8: 4 1";
      "car-radio min: 0x1.4333333333333p+3 rounds 2";
      "car-radio fair: 0x1.4028f5c28f5c3p+6 rounds 2";
      "car-radio alternating: 0x1.0828f5c28f5c3p+6 rounds 2";
      "car-radio slp: 0x1.23851eb851eb8p+3 iterations 2";
      "chain8 lp 0.4: 6 6 6 6 6 6 6";
      "chain8 lp 0.8: 2 2 2 2 2 2 2";
      "chain8 min: 0x1.008f5c28f5c29p+5 rounds 2";
      "chain8 fair: 0x1.4001cac083127p+8 rounds 2";
      "chain8 alternating: 0x1.2801cac083127p+8 rounds 2";
      "chain8 slp: 0x1.008f5c28f5c29p+5 iterations 2";
    ]
    lines

(* ------------------------------------------------------------------ *)
(* Multi-job configurations (shared processors)                        *)
(* ------------------------------------------------------------------ *)

let test_multi_job_budget_constraint () =
  let rng = Workloads.Rng.create 11L in
  let cfg = Workloads.Gen.multi_job rng ~jobs:3 ~tasks_per_job:3 ~procs:3 () in
  let r = solve_exn cfg in
  Alcotest.(check (list string)) "verifies" [] (vnotes (Float_verify.verify cfg r.Mapping.mapped));
  (* Constraint (4): Σ budgets ≤ ̺ on every processor. *)
  List.iter
    (fun p ->
      let used =
        List.fold_left
          (fun acc w -> acc +. r.Mapping.mapped.Config.budget w)
          (Config.overhead cfg p)
          (Config.tasks_on cfg p)
      in
      Alcotest.(check bool)
        (Printf.sprintf "processor %s fits" (Config.proc_name cfg p))
        true
        (used <= Config.replenishment cfg p +. 1e-9))
    (Config.processors cfg)

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let prop_random_chains_verify =
  QCheck2.Test.make ~name:"random chains solve and verify" ~count:25
    QCheck2.Gen.(pair (int_range 2 6) (int_range 0 10_000))
    (fun (n, seed) ->
      let rng = Workloads.Rng.create (Int64.of_int seed) in
      let cfg = Workloads.Gen.random_chain rng ~n () in
      match Mapping.solve cfg with
      | Error _ -> false
      | Ok r -> Float_verify.verify cfg r.Mapping.mapped = [])

let prop_rounded_dominates_continuous =
  QCheck2.Test.make
    ~name:"rounded budgets/capacities dominate the continuous optimum"
    ~count:25
    QCheck2.Gen.(pair (int_range 2 5) (int_range 0 10_000))
    (fun (n, seed) ->
      let rng = Workloads.Rng.create (Int64.of_int seed) in
      let cfg = Workloads.Gen.random_chain rng ~n () in
      match Mapping.solve cfg with
      | Error _ -> false
      | Ok r ->
        List.for_all
          (fun w ->
            r.Mapping.mapped.Config.budget w
            >= r.Mapping.continuous.Socp_builder.budget w -. 1e-5)
          (Config.all_tasks cfg)
        && List.for_all
             (fun b ->
               float_of_int (r.Mapping.mapped.Config.capacity b)
               >= r.Mapping.continuous.Socp_builder.capacity b -. 1e-5)
             (Config.all_buffers cfg))

let prop_mapped_io_roundtrips_solver_output =
  QCheck2.Test.make ~name:"solver mappings survive print/parse" ~count:15
    QCheck2.Gen.(pair (int_range 2 5) (int_range 0 10_000))
    (fun (n, seed) ->
      let rng = Workloads.Rng.create (Int64.of_int seed) in
      let cfg = Workloads.Gen.random_chain rng ~n () in
      match Mapping.solve cfg with
      | Error _ -> false
      | Ok r ->
        let text =
          Format.asprintf "%a" (Taskgraph.Mapped_io.print cfg) r.Mapping.mapped
        in
        let back = Taskgraph.Mapped_io.parse cfg text in
        List.for_all
          (fun w ->
            Float.abs (back.Config.budget w -. r.Mapping.mapped.Config.budget w)
            <= 1e-9)
          (Config.all_tasks cfg)
        && List.for_all
             (fun b ->
               back.Config.capacity b = r.Mapping.mapped.Config.capacity b)
             (Config.all_buffers cfg))

let prop_tighter_period_needs_more =
  QCheck2.Test.make
    ~name:"halving the period never shrinks the optimal objective"
    ~count:15
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      let rng = Workloads.Rng.create (Int64.of_int seed) in
      let build period =
        Workloads.Gen.chain ~n:3 ~period ()
      in
      ignore rng;
      match (Mapping.solve (build 10.0), Mapping.solve (build 5.0)) with
      | Ok loose, Ok tight ->
        tight.Mapping.objective >= loose.Mapping.objective -. 1e-5
      | _ -> false)


(* ------------------------------------------------------------------ *)
(* Initial tokens, container sizes and memory pressure                 *)
(* ------------------------------------------------------------------ *)

let t1_with ~initial ~cap ~mem_capacity ~container =
  let cfg = Config.create ~granularity:1.0 () in
  let p1 = Config.add_processor cfg ~name:"p1" ~replenishment:40.0 () in
  let p2 = Config.add_processor cfg ~name:"p2" ~replenishment:40.0 () in
  let m = Config.add_memory cfg ~name:"m0" ~capacity:mem_capacity in
  let g = Config.add_graph cfg ~name:"t1" ~period:10.0 () in
  let wa = Config.add_task cfg g ~name:"wa" ~proc:p1 ~wcet:1.0 () in
  let wb = Config.add_task cfg g ~name:"wb" ~proc:p2 ~wcet:1.0 () in
  ignore
    (Config.add_buffer cfg g ~name:"bab" ~src:wa ~dst:wb ~memory:m
       ~container_size:container ~initial_tokens:initial ~weight:0.001
       ?max_capacity:cap ());
  cfg

let test_initial_tokens_same_curve () =
  (* The cycle constraint only sees the total capacity γ, so with the
     same cap the optimal budgets are identical whether the containers
     start filled or empty. *)
  List.iter
    (fun d ->
      let r0 = solve_exn (t1_with ~initial:0 ~cap:(Some d) ~mem_capacity:1000 ~container:1) in
      let r1 = solve_exn (t1_with ~initial:1 ~cap:(Some d) ~mem_capacity:1000 ~container:1) in
      let budget r =
        List.fold_left
          (fun acc w -> acc +. r.Mapping.continuous.Socp_builder.budget w)
          0.0
          (Config.all_tasks (t1_with ~initial:0 ~cap:None ~mem_capacity:10 ~container:1))
      in
      Alcotest.(check bool)
        (Printf.sprintf "d=%d same optimum" d)
        true
        (Float.abs (budget r0 -. budget r1) <= 1e-3))
    [ 3; 6; 9 ]

let test_initial_tokens_respected () =
  let cfg = t1_with ~initial:3 ~cap:None ~mem_capacity:1000 ~container:1 in
  let r = solve_exn cfg in
  let b = Config.find_buffer cfg "bab" in
  Alcotest.(check bool) "γ ≥ ι" true (r.Mapping.mapped.Config.capacity b >= 3);
  Alcotest.(check (list string)) "verifies" [] (vnotes (Float_verify.verify cfg r.Mapping.mapped))

let test_memory_capacity_binds () =
  (* Memory for at most 6 unit containers (constraint (10) reserves one
     for rounding): γ ≤ 5 forces budgets to the 5-container level. *)
  let cfg = t1_with ~initial:0 ~cap:None ~mem_capacity:6 ~container:1 in
  let r = solve_exn cfg in
  let b = Config.find_buffer cfg "bab" in
  Alcotest.(check bool) "γ ≤ 5" true (r.Mapping.mapped.Config.capacity b <= 5);
  let beta =
    r.Mapping.continuous.Socp_builder.budget (Config.find_task cfg "wa")
  in
  Alcotest.(check bool) "budget at the 5-container level" true
    (beta >= t1_analytic_budget 5 -. 1e-3)

let test_container_size_scales_memory () =
  (* Containers of 4 words in a 24-word memory: (δ′ + 1)·4 ≤ 24 allows
     at most 5 empty containers. *)
  let cfg = t1_with ~initial:0 ~cap:None ~mem_capacity:24 ~container:4 in
  let r = solve_exn cfg in
  let b = Config.find_buffer cfg "bab" in
  Alcotest.(check bool) "γ ≤ 5" true (r.Mapping.mapped.Config.capacity b <= 5);
  Alcotest.(check (list string)) "verifies" [] (vnotes (Float_verify.verify cfg r.Mapping.mapped))

let test_shared_memory_couples_buffers () =
  (* Two graphs share one small memory: the sum of their capacities is
     bounded even though the graphs are otherwise independent. *)
  let cfg = Config.create ~granularity:1.0 () in
  let procs =
    Array.init 4 (fun i ->
        Config.add_processor cfg
          ~name:(Printf.sprintf "p%d" i)
          ~replenishment:40.0 ())
  in
  let m = Config.add_memory cfg ~name:"shared" ~capacity:10 in
  let build name p1 p2 =
    let g = Config.add_graph cfg ~name ~period:10.0 () in
    let wa = Config.add_task cfg g ~name:(name ^ ".a") ~proc:p1 ~wcet:1.0 () in
    let wb = Config.add_task cfg g ~name:(name ^ ".b") ~proc:p2 ~wcet:1.0 () in
    ignore
      (Config.add_buffer cfg g ~name:(name ^ ".buf") ~src:wa ~dst:wb ~memory:m
         ~weight:0.001 ())
  in
  build "j0" procs.(0) procs.(1);
  build "j1" procs.(2) procs.(3);
  let r = solve_exn cfg in
  let total =
    List.fold_left
      (fun acc b -> acc + r.Mapping.mapped.Config.capacity b)
      0 (Config.all_buffers cfg)
  in
  Alcotest.(check bool) "Σγ ≤ 10" true (total <= 10);
  Alcotest.(check (list string)) "verifies" [] (vnotes (Float_verify.verify cfg r.Mapping.mapped))

let test_overhead_reduces_available_budget () =
  (* With o(p) = 30 of 40 Mcycles, budgets are capped at 9 (granule
     reserve): the solver must still find the feasible point and the
     needed capacity grows accordingly. *)
  let cfg = Config.create ~granularity:1.0 () in
  let p1 = Config.add_processor cfg ~name:"p1" ~replenishment:40.0 ~overhead:30.0 () in
  let p2 = Config.add_processor cfg ~name:"p2" ~replenishment:40.0 ~overhead:30.0 () in
  let m = Config.add_memory cfg ~name:"m" ~capacity:1000 in
  let g = Config.add_graph cfg ~name:"t" ~period:10.0 () in
  let wa = Config.add_task cfg g ~name:"wa" ~proc:p1 ~wcet:1.0 () in
  let wb = Config.add_task cfg g ~name:"wb" ~proc:p2 ~wcet:1.0 () in
  ignore (Config.add_buffer cfg g ~name:"b" ~src:wa ~dst:wb ~memory:m ~weight:0.001 ());
  let r = solve_exn cfg in
  List.iter
    (fun w ->
      Alcotest.(check bool) "β ≤ 9" true (r.Mapping.mapped.Config.budget w <= 9.0 +. 1e-9))
    (Config.all_tasks cfg);
  Alcotest.(check (list string)) "verifies" [] (vnotes (Float_verify.verify cfg r.Mapping.mapped))



(* ------------------------------------------------------------------ *)
(* SOCP builder introspection                                          *)
(* ------------------------------------------------------------------ *)

let test_builder_shape_t1 () =
  (* T1: per task 4 variables (β′, λ, s1, s2) and one δ′ per buffer. *)
  let cfg = Workloads.Gen.paper_t1 () in
  let b = Socp_builder.build cfg in
  Alcotest.(check int) "variables" 9
    (Conic.Model.num_variables b.Socp_builder.model);
  (* Rows: per task β≥0, λ≥0, (6), self-loop (7), 3-row SOC (8) = 7;
     per buffer δ′≥0, data (7), space (7) = 3; per processor (9) = 1
     each.  2·7 + 3 + 2 = 19... plus the memory row (10) = 20. *)
  Alcotest.(check int) "rows" 20 (Conic.Model.num_rows b.Socp_builder.model)

let test_constraints_hold_at_optimum () =
  (* Check Constraints (6), (7)-self-loop and (8) numerically on the
     extracted continuous solution. *)
  let cfg = t1_with_cap 5 in
  let builder = Socp_builder.build cfg in
  let result = Conic.Model.solve builder.Socp_builder.model in
  Alcotest.(check bool) "optimal" true
    (result.Conic.Model.status = Conic.Socp.Optimal);
  let value = result.Conic.Model.value in
  List.iter
    (fun w ->
      let p = Config.task_proc cfg w in
      let repl = Config.replenishment cfg p in
      let mu = Config.period cfg (Config.task_graph cfg w) in
      let beta = value (builder.Socp_builder.budget_var w) in
      let lam = value (builder.Socp_builder.lambda_var w) in
      let s1 = value (builder.Socp_builder.start_var w `A1) in
      let s2 = value (builder.Socp_builder.start_var w `A2) in
      (* (6) *)
      Alcotest.(check bool) "s2 >= s1 + rho1" true
        (s2 +. 1e-6 >= s1 +. repl -. beta);
      (* (7) self-loop *)
      Alcotest.(check bool) "rho2 <= mu" true
        (repl *. Config.wcet cfg w *. lam <= mu +. 1e-6);
      (* (8) *)
      Alcotest.(check bool) "lambda*beta >= 1" true
        (lam *. beta >= 1.0 -. 1e-6))
    (Config.all_tasks cfg)

let contains hay needle =
  let ln = String.length needle and lh = String.length hay in
  let rec at i = i + ln <= lh && (String.sub hay i ln = needle || at (i + 1)) in
  at 0

let test_verify_reports_specific_violations () =
  let cfg = Workloads.Gen.paper_t1 () in
  (* Budgets fine (MCR ≈ 9.71 ≤ 10), but a capacity bound is violated
     on purpose. *)
  Config.set_max_capacity cfg (Config.find_buffer cfg "bab") (Some 5);
  let mapped =
    { Config.budget = (fun _ -> 10.0); Config.capacity = (fun _ -> 7) }
  in
  (match Budgetbuf.Certify.check cfg mapped with
  | Budgetbuf.Certify.Refuted
      (Budgetbuf.Certify.Violated (Budgetbuf.Violation.Buffer_bound _)) ->
    ()
  | c -> Alcotest.failf "expected a buffer-bound refutation, got %s"
           (Budgetbuf.Certify.summary c));
  Alcotest.(check bool) "library mentions the bound" true
    (List.exists
       (fun m -> contains m "bound")
       (vnotes (Budgetbuf.Certify.violations cfg mapped)));
  (* The float oracle sees the same violation. *)
  Alcotest.(check bool) "float oracle mentions the bound" true
    (List.exists
       (fun m -> contains m "bound")
       (vnotes (Float_verify.verify cfg mapped)))

(* One mapping missing its period, its processor capacity (through the
   scheduler overhead), its memory and a buffer bound: the certificate
   refutes with the first, and [violations] lists all four in order. *)
let test_violations_lists_every_constraint () =
  let cfg = Config.create ~granularity:1.0 () in
  let p1 = Config.add_processor cfg ~name:"p1" ~replenishment:40.0 ~overhead:35.0 () in
  let p2 = Config.add_processor cfg ~name:"p2" ~replenishment:40.0 () in
  let m = Config.add_memory cfg ~name:"m0" ~capacity:6 in
  let g = Config.add_graph cfg ~name:"t1" ~period:1.0 () in
  let wa = Config.add_task cfg g ~name:"wa" ~proc:p1 ~wcet:1.0 () in
  let wb = Config.add_task cfg g ~name:"wb" ~proc:p2 ~wcet:1.0 () in
  ignore
    (Config.add_buffer cfg g ~name:"bab" ~src:wa ~dst:wb ~memory:m
       ~max_capacity:5 ());
  let mapped =
    { Config.budget = (fun _ -> 10.0); Config.capacity = (fun _ -> 7) }
  in
  (match Budgetbuf.Certify.check cfg mapped with
  | Budgetbuf.Certify.Refuted (Budgetbuf.Certify.Positive_cycle _) -> ()
  | c -> Alcotest.failf "expected a positive cycle, got %s"
           (Budgetbuf.Certify.summary c));
  let kind = function
    | Budgetbuf.Violation.Throughput _ -> "throughput"
    | Budgetbuf.Violation.Processor_capacity _ -> "processor"
    | Budgetbuf.Violation.Memory_capacity _ -> "memory"
    | Budgetbuf.Violation.Buffer_bound _ -> "bound"
    | _ -> "other"
  in
  Alcotest.(check (list string)) "every violation, in order"
    [ "throughput"; "processor"; "memory"; "bound" ]
    (List.map kind (Budgetbuf.Certify.violations cfg mapped));
  (* A certified mapping has none. *)
  let ok =
    { Config.budget = (fun _ -> 4.0); Config.capacity = (fun _ -> 5) }
  in
  Config.set_period cfg g 40.0;
  Alcotest.(check bool) "certified" true
    (Budgetbuf.Certify.certified (Budgetbuf.Certify.check cfg ok));
  Alcotest.(check (list string)) "no violations" []
    (vnotes (Budgetbuf.Certify.violations cfg ok))



(* ------------------------------------------------------------------ *)
(* Latency-constrained mapping (extension)                             *)
(* ------------------------------------------------------------------ *)

let t1_with_latency bound =
  let cfg = Config.create ~granularity:1.0 () in
  let p1 = Config.add_processor cfg ~name:"p1" ~replenishment:40.0 () in
  let p2 = Config.add_processor cfg ~name:"p2" ~replenishment:40.0 () in
  let m = Config.add_memory cfg ~name:"m0" ~capacity:1000 in
  let g = Config.add_graph cfg ~name:"t1" ~period:10.0 ?latency_bound:bound () in
  let wa = Config.add_task cfg g ~name:"wa" ~proc:p1 ~wcet:1.0 () in
  let wb = Config.add_task cfg g ~name:"wb" ~proc:p2 ~wcet:1.0 () in
  ignore
    (Config.add_buffer cfg g ~name:"bab" ~src:wa ~dst:wb ~memory:m
       ~weight:0.001 ());
  cfg

let test_latency_bound_tightens_budgets () =
  (* Unconstrained optimum is β = 4 with latency 92 (earliest PAS);
     bounding the latency at 60 forces larger budgets. *)
  let free = solve_exn (t1_with_latency None) in
  let tight = solve_exn (t1_with_latency (Some 60.0)) in
  Alcotest.(check bool) "objective grows under the bound" true
    (tight.Mapping.objective > free.Mapping.objective +. 1.0);
  (* And the achieved latency indeed respects the bound. *)
  let cfg = t1_with_latency (Some 60.0) in
  let r = solve_exn cfg in
  Alcotest.(check (list string)) "verified incl. latency" []
    (vnotes (Float_verify.verify cfg r.Mapping.mapped));
  match
    Budgetbuf.Certify.latency cfg r.Mapping.mapped (Config.find_graph cfg "t1")
  with
  | Some l ->
    Alcotest.(check bool) "latency ≤ 60, exactly" true
      (Exact.Rat.compare l (Exact.Rat.of_int 60) <= 0)
  | None -> Alcotest.fail "expected a schedule"

let test_latency_bound_infeasible () =
  (* Even at maximal budgets the latency cannot drop below
     2(̺ − β) + 2̺χ/β ≈ 2 + 2·40/39 ≈ 4.05; bound 3 is hopeless. *)
  match Mapping.solve (t1_with_latency (Some 3.0)) with
  | Error (Mapping.Infeasible _) -> ()
  | Error e -> Alcotest.failf "wrong error: %a" Mapping.pp_error e
  | Ok _ -> Alcotest.fail "expected infeasible"

let test_latency_bound_loose_noop () =
  (* A generous bound leaves the optimum untouched. *)
  let free = solve_exn (t1_with_latency None) in
  let loose = solve_exn (t1_with_latency (Some 500.0)) in
  Alcotest.(check (float 1e-4)) "same objective" free.Mapping.objective
    loose.Mapping.objective

let test_latency_bound_requires_chain () =
  (* A ring has no source/sink: the builder must reject the bound. *)
  let cfg = Config.create ~granularity:1.0 () in
  let p = Config.add_processor cfg ~name:"p" ~replenishment:40.0 () in
  let m = Config.add_memory cfg ~name:"m" ~capacity:100 in
  let g = Config.add_graph cfg ~name:"r" ~period:10.0 ~latency_bound:50.0 () in
  let wa = Config.add_task cfg g ~name:"wa" ~proc:p ~wcet:1.0 () in
  let wb = Config.add_task cfg g ~name:"wb" ~proc:p ~wcet:1.0 () in
  ignore (Config.add_buffer cfg g ~name:"b1" ~src:wa ~dst:wb ~memory:m ());
  ignore
    (Config.add_buffer cfg g ~name:"b2" ~src:wb ~dst:wa ~memory:m
       ~initial_tokens:2 ());
  Alcotest.(check bool) "rejected" true
    (match Socp_builder.build cfg with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_latency_roundtrips_in_config_format () =
  let cfg = t1_with_latency (Some 60.0) in
  let text = Format.asprintf "%a" Config.pp cfg in
  let cfg' = Taskgraph.Parse.config_of_string text in
  Alcotest.(check (option (float 1e-9))) "bound kept" (Some 60.0)
    (Config.latency_bound cfg' (Config.find_graph cfg' "t1"))



(* ------------------------------------------------------------------ *)
(* Sequential-LP baseline                                              *)
(* ------------------------------------------------------------------ *)

module Slp = Budgetbuf.Slp

let test_slp_easy_instance_matches () =
  (* Unbounded buffers: both methods reach the self-loop corner. *)
  let cfg = Workloads.Gen.paper_t1 () in
  let socp = solve_exn cfg in
  match Slp.solve cfg with
  | Error e -> Alcotest.failf "slp failed: %a" Slp.pp_error e
  | Ok o ->
    Alcotest.(check bool) "verified" true o.Slp.verified;
    Alcotest.(check (float 1e-6)) "same rounded objective"
      socp.Mapping.rounded_objective o.Slp.objective

let test_slp_mapping_verified_when_claimed () =
  List.iter
    (fun cap ->
      let cfg = t1_with_cap cap in
      match Slp.solve cfg with
      | Error _ -> () (* allowed: linearisation may fail *)
      | Ok o ->
        if o.Slp.verified then
          Alcotest.(check (list string))
            (Printf.sprintf "cap %d verifies" cap)
            []
            (vnotes (Float_verify.verify cfg o.Slp.mapped)))
    [ 2; 5; 8 ]

let test_slp_never_beats_socp_continuous () =
  (* The SLP's rounded objective can undercut the ROUNDED SOCP result
     (integrality), but never the continuous optimum. *)
  List.iter
    (fun cap ->
      let cfg = t1_with_cap cap in
      let socp = solve_exn cfg in
      match Slp.solve cfg with
      | Error _ -> ()
      | Ok o ->
        if o.Slp.verified then
          Alcotest.(check bool)
            (Printf.sprintf "cap %d: slp >= continuous optimum" cap)
            true
            (o.Slp.objective >= socp.Mapping.objective -. 1e-6))
    [ 2; 4; 6; 8; 10 ]

let test_slp_iteration_bounds () =
  let cfg = t1_with_cap 4 in
  match Slp.solve ~max_iterations:5 cfg with
  | Error e -> Alcotest.failf "slp failed: %a" Slp.pp_error e
  | Ok o -> Alcotest.(check bool) "respects cap" true (o.Slp.iterations <= 5)


let () =
  Alcotest.run "core"
    [
      ( "dataflow-model",
        [
          Alcotest.test_case "structure" `Quick test_model_structure;
          Alcotest.test_case "bad budget" `Quick test_model_rejects_bad_budget;
          Alcotest.test_case "throughput check" `Quick
            test_throughput_ok_known_point;
          Alcotest.test_case "min feasible period" `Quick
            test_min_feasible_period;
        ] );
      ( "algorithm1-t1",
        [
          Alcotest.test_case "matches analytic curve" `Quick
            test_t1_matches_analytic;
          Alcotest.test_case "capacity 10 minimises" `Quick
            test_t1_capacity_ten_minimises;
          Alcotest.test_case "rounding verifies" `Quick
            test_t1_rounding_verifies;
          Alcotest.test_case "relaxation tight" `Quick test_t1_relaxation_tight;
          Alcotest.test_case "memory infeasible" `Quick
            test_t1_infeasible_cap_zero_memory;
          Alcotest.test_case "period infeasible" `Quick
            test_t1_infeasible_tight_period;
          Alcotest.test_case "weights steer" `Quick test_objective_weights_steer;
        ] );
      ( "algorithm1-t2",
        [
          Alcotest.test_case "middle task larger" `Quick
            test_t2_middle_task_keeps_larger_budget;
          Alcotest.test_case "strict separation" `Quick
            test_t2_strictly_separated_mid_range;
          Alcotest.test_case "self-loop bound" `Quick
            test_t2_converges_to_self_loop_bound;
        ] );
      ( "tradeoff",
        [
          Alcotest.test_case "monotone budgets" `Quick
            test_sweep_monotone_budgets;
          Alcotest.test_case "deltas" `Quick test_sweep_deltas_positive_decreasing;
          Alcotest.test_case "restores bounds" `Quick test_sweep_restores_bounds;
        ] );
      ( "two-phase",
        [
          Alcotest.test_case "fair share works" `Quick
            test_budget_first_fair_share_works_unbounded;
          Alcotest.test_case "false negative" `Quick
            test_budget_first_min_budget_false_negative;
          Alcotest.test_case "min budget big buffers" `Quick
            test_budget_first_min_budget_needs_big_buffers;
          Alcotest.test_case "buffer first at bound" `Quick
            test_buffer_first_at_bound;
          Alcotest.test_case "uniform double buffering" `Quick
            test_buffer_first_uniform_double_buffering;
          Alcotest.test_case "joint dominates" `Quick
            test_joint_no_worse_than_two_phase;
          Alcotest.test_case "alternating converges" `Quick
            test_alternating_converges;
          Alcotest.test_case "simplex baselines pinned" `Quick
            test_simplex_baselines_pinned;
        ] );
      ( "builder",
        [
          Alcotest.test_case "shape" `Quick test_builder_shape_t1;
          Alcotest.test_case "constraints hold" `Quick
            test_constraints_hold_at_optimum;
          Alcotest.test_case "verify messages" `Quick
            test_verify_reports_specific_violations;
          Alcotest.test_case "violations lists every constraint" `Quick
            test_violations_lists_every_constraint;
        ] );
      ( "resources",
        [
          Alcotest.test_case "initial tokens same curve" `Quick
            test_initial_tokens_same_curve;
          Alcotest.test_case "initial tokens respected" `Quick
            test_initial_tokens_respected;
          Alcotest.test_case "memory capacity binds" `Quick
            test_memory_capacity_binds;
          Alcotest.test_case "container size scales" `Quick
            test_container_size_scales_memory;
          Alcotest.test_case "shared memory couples" `Quick
            test_shared_memory_couples_buffers;
          Alcotest.test_case "overhead reduces budget" `Quick
            test_overhead_reduces_available_budget;
        ] );
      ( "slp",
        [
          Alcotest.test_case "easy instance" `Quick
            test_slp_easy_instance_matches;
          Alcotest.test_case "verified when claimed" `Quick
            test_slp_mapping_verified_when_claimed;
          Alcotest.test_case "never beats continuous" `Quick
            test_slp_never_beats_socp_continuous;
          Alcotest.test_case "iteration cap" `Quick test_slp_iteration_bounds;
        ] );
      ( "latency-bound",
        [
          Alcotest.test_case "tightens budgets" `Quick
            test_latency_bound_tightens_budgets;
          Alcotest.test_case "infeasible" `Quick test_latency_bound_infeasible;
          Alcotest.test_case "loose noop" `Quick test_latency_bound_loose_noop;
          Alcotest.test_case "requires chain" `Quick
            test_latency_bound_requires_chain;
          Alcotest.test_case "format roundtrip" `Quick
            test_latency_roundtrips_in_config_format;
        ] );
      ( "multi-job",
        [
          Alcotest.test_case "budget constraint" `Quick
            test_multi_job_budget_constraint;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_random_chains_verify;
            prop_rounded_dominates_continuous;
            prop_mapped_io_roundtrips_solver_output;
            prop_tighter_period_needs_more;
          ] );
    ]
