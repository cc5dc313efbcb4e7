(* Tests for the domain pool (lib/parallel) and the parallel solve
   fan-out built on it.

   The central property is the determinism oracle of docs/testing.md:
   [Pool.map] over a capacity sweep must be bit-identical to the
   sequential [List.map], including the [Error] cases — the parallel
   and sequential paths act as a pair of independent implementations
   checking each other. *)

module Config = Taskgraph.Config
module Mapping = Budgetbuf.Mapping
module Pool = Parallel.Pool

let check_float eps = Alcotest.(check (float eps))

(* Closed form for the paper's T1 (DESIGN.md §5); unconstrained the
   self-loop bound β ≥ ̺χ/µ = 4 is active. *)
let t1_analytic_budget d =
  let d = float_of_int d in
  Float.max 4.0
    (((80.0 -. (10.0 *. d)) +. sqrt ((((10.0 *. d) -. 80.0) ** 2.0) +. 640.0))
    /. 4.0)

(* Two domains solve different instances at the same time, each on its
   own per-solve KKT workspace: chain 100 and a 20-job configuration,
   both with a dense row on the Woodbury path.  Every interior-point
   iterate is a pure function of its instance, so each domain must
   reproduce the IEEE bits of its sequential solve. *)
let test_concurrent_solves_bit_identical () =
  let digest cfg () =
    let b = Budgetbuf.Socp_builder.build (cfg ()) in
    Iterate_digest.of_solution
      (Conic.Model.solve b.Budgetbuf.Socp_builder.model).Conic.Model.raw
  in
  let chain = digest (fun () -> Workloads.Gen.chain ~n:100 ())
  and jobs =
    digest (fun () ->
        Workloads.Gen.multi_job (Workloads.Rng.create 1L) ~jobs:20
          ~tasks_per_job:5 ~procs:20 ())
  in
  let sequential_chain = chain () and sequential_jobs = jobs () in
  let repeat f () = List.init 3 (fun _ -> f ()) in
  let d1 = Domain.spawn (repeat chain) and d2 = Domain.spawn (repeat jobs) in
  let got_chain = Domain.join d1 and got_jobs = Domain.join d2 in
  List.iter (Alcotest.(check string) "chain 100 digest" sequential_chain) got_chain;
  List.iter (Alcotest.(check string) "multi-job 20 digest" sequential_jobs) got_jobs

(* ------------------------------------------------------------------ *)
(* Determinism: Pool.map ≡ List.map, bit for bit                       *)
(* ------------------------------------------------------------------ *)

(* Structural equality on [Mapping.result] raises (the mapped record
   holds closures), so the comparison projects every observable of a
   solve into a string: rounded budgets and capacities, the continuous
   optimum bit-patterns, the certificate and the error
   constructor.  Bit-identical projections ⇒ bit-identical results. *)
let solve_signature cfg = function
  | Ok (r : Mapping.result) ->
    let budgets =
      List.map
        (fun w ->
          Printf.sprintf "%Lx/%Lx"
            (Int64.bits_of_float (r.Mapping.mapped.Config.budget w))
            (Int64.bits_of_float
               (r.Mapping.continuous.Budgetbuf.Socp_builder.budget w)))
        (Config.all_tasks cfg)
    and caps =
      List.map
        (fun b -> string_of_int (r.Mapping.mapped.Config.capacity b))
        (Config.all_buffers cfg)
    in
    Printf.sprintf "ok obj=%Lx robj=%Lx budgets=%s caps=%s cert=%s"
      (Int64.bits_of_float r.Mapping.objective)
      (Int64.bits_of_float r.Mapping.rounded_objective)
      (String.concat "," budgets) (String.concat "," caps)
      (Budgetbuf.Certify.summary r.Mapping.certificate)
  | Error e -> Format.asprintf "error: %a" Mapping.pp_error e

(* One capacity point: cap every buffer of a private clone (handles
   stay valid across [Config.copy]) and run the full flow. *)
let solve_capped cfg cap =
  let candidate = Config.copy cfg in
  List.iter
    (fun b -> Config.set_max_capacity candidate b (Some cap))
    (Config.all_buffers cfg);
  solve_signature cfg (Mapping.solve candidate)

(* Caps from 1 upward so the sweep crosses from Infeasible to Ok —
   the property covers the [Error] branch too. *)
let sweep_caps = [ 1; 2; 3; 5; 8 ]

let prop_pool_map_matches_sequential =
  QCheck2.Test.make ~name:"Pool.map bit-identical to List.map" ~count:10
    QCheck2.Gen.(pair (int_range 2 5) (int_range 0 10_000))
    (fun (n, seed) ->
      let rng = Workloads.Rng.create (Int64.of_int seed) in
      let cfg = Workloads.Gen.random_chain rng ~n () in
      let seq = List.map (solve_capped cfg) sweep_caps in
      let par =
        Pool.with_pool ~domains:4 @@ fun pool ->
        Pool.map pool (solve_capped cfg) sweep_caps
      in
      if seq <> par then
        QCheck2.Test.fail_reportf "parallel sweep diverged:@.seq %s@.par %s"
          (String.concat " | " seq) (String.concat " | " par);
      true)

(* The journal-less pooled curve against the sequential one, point by
   point: period bits and failure reasons alike.  Each
   dse candidate chains warm starts through its own probes only, so
   its cone iterations are a pure function of the candidate too:
   - the sequential sweep's per-candidate totals equal those of each
     cap swept alone (the single-cap sweeps run side by side on the
     pool), so a seed that leaks from one candidate into the next
     fails even where the points agree;
   - the pooled sweep makes exactly as many iterations in all. *)
let test_throughput_curve_matches_sequential () =
  let caps = List.init 10 (fun i -> i + 1) in
  let show (p : Budgetbuf.Dse.curve_point) =
    Printf.sprintf "%d %s" p.cap
      (match p.outcome with
       | Ok None -> "none"
       | Ok (Some period) -> Printf.sprintf "%h" period
       | Error e -> "error " ^ Mapping.label e)
  in
  let traced ?pool cfg caps =
    let obs, sink = Sweep_iterations.context () in
    let curve = Budgetbuf.Dse.throughput_curve ?pool ~obs cfg ~caps in
    (List.map show curve, sink)
  in
  List.iter
    (fun (name, cfg) ->
      let seq, seq_sink = traced cfg caps in
      let seq_iterations = Sweep_iterations.per_candidate seq_sink in
      Pool.with_pool ~domains:4 @@ fun pool ->
      let par, par_sink = traced ~pool cfg caps in
      Alcotest.(check (list string))
        (name ^ ": curve identical across job counts") seq par;
      Alcotest.(check int)
        (name ^ ": iterations identical across job counts")
        (Sweep_iterations.total seq_sink)
        (Sweep_iterations.total par_sink);
      let alone =
        Pool.map pool
          (fun cap ->
            let points, sink = traced cfg [ cap ] in
            (points, Sweep_iterations.total sink))
          caps
      in
      Alcotest.(check (list string))
        (name ^ ": curve identical cap by cap") seq
        (List.concat_map fst alone);
      Alcotest.(check (list (pair int int)))
        (name ^ ": per-candidate iterations identical cap by cap")
        seq_iterations
        (List.mapi (fun i (_, n) -> (i, n)) alone))
    [
      ("paper T1", Workloads.Gen.paper_t1 ());
      ("chain n=6", Workloads.Gen.chain ~n:6 ());
    ]

(* The cone iterations of a T1 throughput curve over caps 1:4, from the
   solve counters of its context: per cap one cold solve of the
   min-period bound, whose rounded optimum (every buffer at its cap) is
   certified at once and ends the search, 4 solves in 65 iterations.
   The search that probed from that bound instead (a cold probe at the
   unscaled period and a warm one just above the bound) took 12 solves
   in 188 iterations; the blind bisection before it, 69 probes in 713
   iterations with the same warm chain and 1095 cold.  A change to the
   search, the bound program or the solver's trajectory moves this
   pin.  No fault plan applies, whatever [BUDGETBUF_FAULT] says: a plan
   that faults the first rung sends every cap to the probes. *)
let test_throughput_curve_iterations_pinned () =
  let obs = Obs.Ctx.make () in
  ignore
    (Budgetbuf.Dse.throughput_curve ~obs
       ~fault:None
       (Workloads.Gen.paper_t1 ()) ~caps:[ 1; 2; 3; 4 ]);
  let solves =
    List.find (String.starts_with ~prefix:"solves: ") (Obs.Ctx.report obs)
  in
  let iterations = Scanf.sscanf solves "solves: %_d (%d iterations)" Fun.id in
  Alcotest.(check int) "cone iterations pinned" 65 iterations

(* ------------------------------------------------------------------ *)
(* Failure semantics: earliest exception at the join, pool survives    *)
(* ------------------------------------------------------------------ *)

let test_exception_reraised_and_pool_usable () =
  Pool.with_pool ~domains:4 @@ fun pool ->
  (match
     Pool.map pool
       (fun i -> if i mod 3 = 1 then failwith (Printf.sprintf "task %d" i)
        else i * i)
       (List.init 8 Fun.id)
   with
  | _ -> Alcotest.fail "expected the task exception at the join"
  | exception Failure msg ->
    (* Inputs 1, 4 and 7 all fail; the join must deterministically
       re-raise the earliest one. *)
    Alcotest.(check string) "earliest failed input wins" "task 1" msg);
  (* The failed batch must not wedge the pool: later maps still run. *)
  let again = Pool.map pool (fun i -> i + 1) (List.init 5 Fun.id) in
  Alcotest.(check (list int)) "pool usable after failure" [ 1; 2; 3; 4; 5 ]
    again

let test_map_after_fini_rejected () =
  let pool = Pool.create ~domains:2 in
  Pool.fini pool;
  Pool.fini pool (* idempotent *);
  match Pool.map pool Fun.id [ 1 ] with
  | _ -> Alcotest.fail "map on a finalised pool must raise"
  | exception Invalid_argument _ -> ()

let test_create_rejects_nonpositive () =
  match Pool.create ~domains:0 with
  | _ -> Alcotest.fail "domains:0 must be rejected"
  | exception Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* Reentrancy: concurrent solves of the same instance                  *)
(* ------------------------------------------------------------------ *)

(* Two domains run the full flow on their own T1 instance at the same
   time.  The solver stack keeps no global mutable state (docs/
   solver.md), so both must reproduce the closed-form optimum
   β′ = 4 to 1e-6 relative — a wrong answer here means a data race in
   shared scratch. *)
let test_concurrent_solves_reproduce_optimum () =
  let solve () =
    let cfg = Workloads.Gen.paper_t1 () in
    match Mapping.solve cfg with
    | Ok r ->
      List.map
        (fun w -> r.Mapping.continuous.Budgetbuf.Socp_builder.budget w)
        (Config.all_tasks cfg)
    | Error e -> Alcotest.failf "concurrent solve failed: %a" Mapping.pp_error e
  in
  let d1 = Domain.spawn solve and d2 = Domain.spawn solve in
  let budgets = Domain.join d1 @ Domain.join d2 in
  let expected = t1_analytic_budget 1000 (* unconstrained: 4.0 *) in
  Alcotest.(check int) "both domains, both tasks" 4 (List.length budgets);
  List.iter
    (fun b ->
      let rel = Float.abs (b -. expected) /. expected in
      if rel > 1e-6 then
        Alcotest.failf "budget %.12g off the closed form %.12g (rel %.3g)" b
          expected rel)
    budgets

(* ------------------------------------------------------------------ *)
(* Instrumentation and configuration                                   *)
(* ------------------------------------------------------------------ *)

(* The pool keeps no counters of its own (the --metrics pool line folds
   Task_dispatch/Task_join trace events), so these count in the tasks:
   every item of a map runs exactly once, on one of [domains] lanes. *)
let test_stats_counters () =
  Pool.with_pool ~domains:3 @@ fun pool ->
  Alcotest.(check int) "domains" 3 (Pool.domains pool);
  let runs = Atomic.make 0 in
  let count f i =
    Atomic.incr runs;
    f i
  in
  ignore (Pool.map pool (count (fun i -> i * 2)) (List.init 10 Fun.id));
  ignore (Pool.map pool (count (fun i -> i * 3)) (List.init 7 Fun.id));
  Alcotest.(check int) "tasks run" 17 (Atomic.get runs)

(* The cancellation contract: after a map or map_result every item has
   run (failures included), while under cooperative cancellation the
   short-circuited slots record [Error Cancelled] without ever running
   [f], so the slots that hold a result are exactly the started ones. *)
let test_stats_tasks_run_contract () =
  Pool.with_pool ~domains:3 @@ fun pool ->
  let started = Atomic.make 0 in
  let start f i =
    Atomic.incr started;
    f i
  in
  ignore (Pool.map pool (start (fun i -> i + 1)) (List.init 11 Fun.id));
  Alcotest.(check int) "map runs every item" 11 (Atomic.get started);
  ignore
    (Pool.map_result pool
       (start (fun i -> if i = 2 then failwith "boom" else i))
       (List.init 5 Fun.id));
  Alcotest.(check int) "map_result runs every item, failures included" 16
    (Atomic.get started);
  Atomic.set started 0;
  let outcomes =
    Pool.map_result pool
      ~cancel:(fun () -> Atomic.get started >= 3)
      (start (fun i ->
           Unix.sleepf 0.002;
           i))
      (List.init 50 Fun.id)
  in
  let ran, cancelled =
    List.fold_left
      (fun (r, c) -> function
        | Ok _ -> (r + 1, c)
        | Error Pool.Cancelled -> (r, c + 1)
        | Error _ -> Alcotest.fail "unexpected task failure")
      (0, 0) outcomes
  in
  Alcotest.(check int) "every slot accounted for" 50 (ran + cancelled);
  Alcotest.(check bool) "cancellation actually short-circuited" true
    (cancelled > 0);
  Alcotest.(check int) "under cancellation only started tasks ran"
    (Atomic.get started) ran

let test_single_domain_runs_in_submission_order () =
  (* domains:1 spawns nothing; tasks run on the caller in order. *)
  let order = ref [] in
  Pool.with_pool ~domains:1 @@ fun pool ->
  let out =
    Pool.map pool
      (fun i ->
        order := i :: !order;
        i)
      (List.init 6 Fun.id)
  in
  Alcotest.(check (list int)) "results in input order" [ 0; 1; 2; 3; 4; 5 ] out;
  Alcotest.(check (list int)) "executed in submission order" [ 0; 1; 2; 3; 4; 5 ]
    (List.rev !order)

let test_nested_map_does_not_deadlock () =
  (* An outer task maps on the same pool (the pooled experiment report
     does exactly this); caller participation must keep it live even
     when the batch exceeds the lane count. *)
  Pool.with_pool ~domains:2 @@ fun pool ->
  let out =
    Pool.map pool
      (fun i -> List.fold_left ( + ) 0 (Pool.map pool (fun j -> i * j)
                                          (List.init 4 Fun.id)))
      (List.init 6 Fun.id)
  in
  Alcotest.(check (list int)) "nested totals" [ 0; 6; 12; 18; 24; 30 ] out

let test_default_domains_env () =
  let prev = Sys.getenv_opt "BUDGETBUF_JOBS" in
  let restore () =
    match prev with
    | Some v -> Unix.putenv "BUDGETBUF_JOBS" v
    | None -> Unix.putenv "BUDGETBUF_JOBS" ""
  in
  Fun.protect ~finally:restore @@ fun () ->
  Unix.putenv "BUDGETBUF_JOBS" "3";
  Alcotest.(check int) "BUDGETBUF_JOBS honoured" 3 (Pool.default_domains ());
  Unix.putenv "BUDGETBUF_JOBS" "zero";
  (match Pool.default_domains () with
  | _ -> Alcotest.fail "garbage BUDGETBUF_JOBS must be rejected"
  | exception Invalid_argument _ -> ());
  Unix.putenv "BUDGETBUF_JOBS" "";
  Alcotest.(check bool) "unset falls back to the machine" true
    (Pool.default_domains () >= 1)

(* ------------------------------------------------------------------ *)
(* Dse.min_period_scale probe budget (satellite of the pool rework)    *)
(* ------------------------------------------------------------------ *)

(* One shared clone is rescaled in place across all probes.  T1's
   buffer has no cap, so its min-period bound (0.10256, the self-loop
   floor 40/39 over µ = 10) is no mapping and the search probes: it
   costs exactly 2 probes besides the cold bound solve, the cold probe
   at scale 1 and a certified one at the bound ·(1 + 5e-5), which ends
   the search.  (A capped config ends on the bound's own mapping with
   no probe: see the iterations pin above.)  The blind bisection before
   it took 18 (the probe at scale 1, then halving from the utilisation
   anchor 0.1 to relative 1e-4).  A regression that rebuilds the config
   per probe keeps this count — the pin is on the solve count, which is
   the dominant cost and must not creep. *)
let test_min_period_scale_probe_count () =
  let cfg = Workloads.Gen.paper_t1 () in
  let probes = ref 0 in
  let scale =
    Budgetbuf.Dse.min_period_scale ~on_probe:(fun _ -> incr probes) cfg
  in
  (match scale with
  | Some s ->
    (* T1 sustains ~10x its stated rate: the self-loop floor ̺χ/β′
       with β′ ≤ 39, over µ = 10. *)
    check_float 1e-3 "min feasible scale" 0.1026 s;
    Alcotest.(check bool) "requirement holds with margin" true (s <= 1.0)
  | None -> Alcotest.fail "T1 must have a feasible scale");
  Alcotest.(check int) "probe count pinned" 2 !probes

let test_min_period_scale_leaves_input_untouched () =
  let cfg = Workloads.Gen.paper_t1 () in
  let g = Config.find_graph cfg "t1" in
  let before = Config.period cfg g in
  ignore (Budgetbuf.Dse.min_period_scale cfg);
  check_float 0.0 "period unchanged" before (Config.period cfg g)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "parallel"
    [
      ( "determinism",
        [
          Alcotest.test_case "throughput curve identical" `Quick
            test_throughput_curve_matches_sequential;
          Alcotest.test_case "throughput curve iterations pinned" `Quick
            test_throughput_curve_iterations_pinned;
          QCheck_alcotest.to_alcotest prop_pool_map_matches_sequential;
        ] );
      ( "failure",
        [
          Alcotest.test_case "exception at join, pool survives" `Quick
            test_exception_reraised_and_pool_usable;
          Alcotest.test_case "map after fini" `Quick
            test_map_after_fini_rejected;
          Alcotest.test_case "domains >= 1" `Quick
            test_create_rejects_nonpositive;
        ] );
      ( "reentrancy",
        [
          Alcotest.test_case "concurrent T1 solves hit the optimum" `Quick
            test_concurrent_solves_reproduce_optimum;
          Alcotest.test_case "concurrent workspaces bit-identical" `Quick
            test_concurrent_solves_bit_identical;
        ] );
      ( "pool",
        [
          Alcotest.test_case "stats counters" `Quick test_stats_counters;
          Alcotest.test_case "tasks_run contract" `Quick
            test_stats_tasks_run_contract;
          Alcotest.test_case "single domain is sequential" `Quick
            test_single_domain_runs_in_submission_order;
          Alcotest.test_case "nested map" `Quick
            test_nested_map_does_not_deadlock;
          Alcotest.test_case "BUDGETBUF_JOBS" `Quick test_default_domains_env;
        ] );
      ( "dse",
        [
          Alcotest.test_case "probe count pinned" `Quick
            test_min_period_scale_probe_count;
          Alcotest.test_case "input config untouched" `Quick
            test_min_period_scale_leaves_input_untouched;
        ] );
    ]
