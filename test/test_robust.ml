(* Tests for the solver resilience layer: fault-plan parsing, Ruiz
   equilibration (unit + property), the staged recovery ladder pinned
   rung by rung through fault injection, failure-tolerant sweeps, and
   Pool.map_result. *)

module Vec = Linalg.Vec
module Mat = Linalg.Mat
module Cone = Conic.Cone
module Socp = Conic.Socp
module Presolve = Conic.Presolve
module Sparse_rows = Conic.Sparse_rows
module Fault = Robust.Fault
module Config = Taskgraph.Config
module Mapping = Budgetbuf.Mapping
module Pool = Parallel.Pool

let check_float eps = Alcotest.(check (float eps))

(* ------------------------------------------------------------------ *)
(* Fault plans                                                         *)
(* ------------------------------------------------------------------ *)

let test_fault_parse () =
  (match Fault.of_string "stall" with
  | Ok p ->
    Alcotest.(check bool) "kind" true (p.Fault.kind = Fault.Solver Socp.Stall);
    Alcotest.(check int) "iter" 0 p.Fault.iteration;
    Alcotest.(check int) "attempts" 1 p.Fault.attempts;
    Alcotest.(check bool) "only" true (p.Fault.only = None)
  | Error e -> Alcotest.failf "stall rejected: %s" e);
  (match Fault.of_string "nan,iter=3,attempts=2,only=1" with
  | Ok p ->
    Alcotest.(check bool) "kind" true (p.Fault.kind = Fault.Solver Socp.Nan);
    Alcotest.(check int) "iter" 3 p.Fault.iteration;
    Alcotest.(check int) "attempts" 2 p.Fault.attempts;
    Alcotest.(check bool) "only" true (p.Fault.only = Some 1)
  | Error e -> Alcotest.failf "full spec rejected: %s" e);
  (match Fault.of_string "stall,attempts=all" with
  | Ok p -> Alcotest.(check int) "all" max_int p.Fault.attempts
  | Error e -> Alcotest.failf "attempts=all rejected: %s" e);
  List.iter
    (fun bad ->
      match Fault.of_string bad with
      | Ok _ -> Alcotest.failf "%S accepted" bad
      | Error _ -> ())
    [ ""; "wedge"; "stall,iter=x"; "stall,bogus=1"; "stall,attempts=0" ]

let test_fault_roundtrip () =
  List.iter
    (fun spec ->
      match Fault.of_string spec with
      | Error e -> Alcotest.failf "%S rejected: %s" spec e
      | Ok p -> (
        match Fault.of_string (Fault.to_string p) with
        | Ok p' -> Alcotest.(check bool) spec true (p = p')
        | Error e -> Alcotest.failf "roundtrip of %S rejected: %s" spec e))
    [ "stall"; "nan,iter=2"; "stall,attempts=all,only=3" ]

let test_fault_candidate_and_coverage () =
  let plan spec =
    match Fault.of_string spec with
    | Ok p -> p
    | Error e -> Alcotest.failf "%S: %s" spec e
  in
  let only1 = plan "stall,only=1" in
  Alcotest.(check bool) "only=1 skips candidate 0" true
    (Fault.for_candidate (Some only1) ~index:0 = None);
  (match Fault.for_candidate (Some only1) ~index:1 with
  | Some p -> Alcotest.(check bool) "restriction dropped" true (p.Fault.only = None)
  | None -> Alcotest.fail "only=1 must cover candidate 1");
  Alcotest.(check bool) "unrestricted covers all" true
    (Fault.for_candidate (Some Fault.stall_first) ~index:7 <> None);
  Alcotest.(check bool) "no plan, no fault" true
    (Fault.for_candidate None ~index:0 = None);
  Alcotest.(check bool) "attempt 1 covered" true
    (Fault.covers (Some Fault.stall_first) ~attempt:1);
  Alcotest.(check bool) "attempt 2 clean" false
    (Fault.covers (Some Fault.stall_first) ~attempt:2);
  Alcotest.(check bool) "all covers the fallback too" true
    (Fault.covers (Some (plan "stall,attempts=all")) ~attempt:5)

(* The spec grammar shared by [--fault] and [--chaos]: each row is a
   spec and either the canonical [to_string] of the plan it parses to
   or the exact error text.  The table pins both grammars' behaviour —
   defaults, every key, positional shorthand, whitespace, and each
   kind of malformed spec — so the parser they share cannot drift. *)
let fault_kinds =
  "(expected stall, nan, slow, dense_kkt, bad_round, crash, hang or oom)"

let fault_rows =
  [
    ("stall", Ok "stall");
    ("nan", Ok "nan");
    ("slow", Ok "slow");
    ("dense_kkt", Ok "dense_kkt");
    ("bad_round", Ok "bad_round");
    ("crash", Ok "crash");
    ("hang", Ok "hang");
    ("oom", Ok "oom");
    ("stall,iter=0", Ok "stall");
    ("nan,iter=3", Ok "nan,iter=3");
    ("stall,attempts=1", Ok "stall");
    ("stall,attempts=2", Ok "stall,attempts=2");
    ("stall,attempts=all", Ok "stall,attempts=all");
    ("stall,only=0", Ok "stall,only=0");
    ("nan,iter=3,attempts=2,only=1", Ok "nan,iter=3,attempts=2,only=1");
    ("stall,only=1,iter=2", Ok "stall,iter=2,only=1");
    ("  stall , iter = 4 ", Ok "stall,iter=4");
    ("stall,iter=4,iter=5", Ok "stall,iter=5");
    ("", Error "empty fault spec");
    ("   ", Error "empty fault spec");
    ("wedge", Error ("unknown fault kind \"wedge\" " ^ fault_kinds));
    ("STALL", Error ("unknown fault kind \"STALL\" " ^ fault_kinds));
    (",iter=1", Error ("unknown fault kind \"\" " ^ fault_kinds));
    ( "stall,iter=x",
      Error "fault spec: iter expects a non-negative integer, got \"x\"" );
    ( "stall,iter=-1",
      Error "fault spec: iter expects a non-negative integer, got \"-1\"" );
    ( "stall,only=-2",
      Error "fault spec: only expects a non-negative integer, got \"-2\"" );
    ( "stall,attempts=0",
      Error
        "fault spec: attempts expects a positive integer or \"all\", got \"0\""
    );
    ( "stall,attempts= x",
      Error
        "fault spec: attempts expects a positive integer or \"all\", got \"x\""
    );
    ("stall,bogus=1", Error "fault spec: unknown option \"bogus\"");
    ("stall,3", Error "fault spec: malformed option \"3\"");
    ("stall,", Error "fault spec: malformed option \"\"");
    ( "stall,iter=x,bogus=1",
      Error "fault spec: iter expects a non-negative integer, got \"x\"" );
  ]

let chaos_kinds =
  "(expected torn, reset, stall, exn, fsync, corrupt or all)"

let chaos_rows =
  [
    ("torn", Ok "torn");
    ("reset", Ok "reset");
    ("stall", Ok "stall");
    ("exn", Ok "exn");
    ("fsync", Ok "fsync");
    ("corrupt", Ok "corrupt");
    ("all", Ok "all");
    ("all,n=4", Ok "all");
    ("stall,seed=0", Ok "stall");
    ("all,n=4,seed=123", Ok "all,seed=123");
    ("all,4,7", Ok "all,seed=7");
    ("torn,2", Ok "torn,n=2");
    ("torn,seed=-5", Ok "torn,seed=-5");
    ("exn,seed=9,n=3", Ok "exn,n=3,seed=9");
    (" fsync , n = 2 ", Ok "fsync,n=2");
    ("all,n= 5", Ok "all,n=5");
    ("corrupt,n=1,5", Ok "corrupt,n=5");
    ("all,seed=3,2", Ok "all,n=2,seed=3");
    ("all,n=2,n=3", Ok "all,n=3");
    ("", Error "empty chaos spec");
    ("quake", Error ("unknown chaos kind \"quake\" " ^ chaos_kinds));
    ("Torn", Error ("unknown chaos kind \"Torn\" " ^ chaos_kinds));
    ("all,n=0", Error "chaos spec: n expects a positive integer, got \"0\"");
    ("all,n=x", Error "chaos spec: n expects a positive integer, got \"x\"");
    ("all,seed=x", Error "chaos spec: seed expects an integer, got \"x\"");
    ("all,bogus=1", Error "chaos spec: unknown option \"bogus\"");
    ("all,4,7,9", Error "chaos spec: unexpected option \"9\"");
    ("all,0", Error "chaos spec: n expects a positive integer, got \"0\"");
    ("all,4,x", Error "chaos spec: seed expects an integer, got \"x\"");
    ("all,", Error "chaos spec: n expects a positive integer, got \"\"");
  ]

let test_spec_parity () =
  let check grammar parse print rows =
    List.iter
      (fun (spec, want) ->
        let got = Result.map print (parse spec) in
        Alcotest.(check (result string string))
          (Printf.sprintf "%s %S" grammar spec)
          want got;
        (* the canonical form parses back to the same plan *)
        match (parse spec, want) with
        | Ok plan, Ok canonical ->
          Alcotest.(check bool)
            (Printf.sprintf "%s %S canonical form" grammar spec)
            true
            (parse canonical = Ok plan)
        | _ -> ())
      rows
  in
  check "fault" Fault.of_string Fault.to_string fault_rows;
  check "chaos" Serve.Chaos.of_string Serve.Chaos.to_string chaos_rows

(* ------------------------------------------------------------------ *)
(* Equilibration                                                       *)
(* ------------------------------------------------------------------ *)

(* How far the objective cᵀx of an approximate primal–dual point
   (x, s, z), with s and z in the cone, can sit from the optimum p*.
   Take rp = Gx + s − h and rd = Gᵀz + c.  Against an optimal dual z*,
   p* = −hᵀz* = cᵀx − sᵀz* + rpᵀz* ≤ cᵀx + ‖rp‖·‖z*‖; against an
   optimal primal x*, p* = cᵀx* = −hᵀz + zᵀs* + rdᵀx* ≥ −hᵀz − ‖rd‖·‖x*‖.
   So |cᵀx − p*| ≤ |cᵀx + hᵀz| + ‖rp‖·‖z*‖ + ‖rd‖·‖x*‖, with the point's
   own ‖x‖ and ‖z‖ standing in for the unknown ‖x*‖ and ‖z*‖. *)
let objective_error ~c ~g ~h (x, s, z) =
  let rp = Vec.sub (Vec.add (Sparse_rows.mul_vec g x) s) h in
  let rd = Vec.add (Sparse_rows.mul_tvec g z) c in
  Float.abs (Vec.dot c x +. Vec.dot h z)
  +. (Vec.nrm2 rp *. Vec.nrm2 z)
  +. (Vec.nrm2 rd *. Vec.nrm2 x)

(* The path [Socp.solve] takes on a badly scaled program, run on any
   data: Ruiz-equilibrate, solve the scaled program, map the point back
   to the original coordinates.  The error bound is taken where the
   solver's tolerances hold, on the scaled program, and divided by the
   objective scale σ: ĉ = σ·Dc·c, so the scaled optimum is σ·p*. *)
let solve_equilibrated ~c ~g ~h cone =
  let sc, c', g', h' = Presolve.equilibrate ~c ~g ~h cone in
  let sol = Socp.solve ~c:c' ~g:g' ~h:h' cone in
  let point =
    Presolve.unscale_point sc ~x:sol.Socp.x ~s:sol.Socp.s ~z:sol.Socp.z
  in
  let error =
    objective_error ~c:c' ~g:g' ~h:h' (sol.Socp.x, sol.Socp.s, sol.Socp.z)
    /. sc.Presolve.obj
  in
  (sol.Socp.status, point, error)

(* [reference] is a direct solve of a program with the same optimum as
   (c, G, h), and [ref_error] its [objective_error] there.  The
   equilibrated solve of (c, G, h) must land within the two solves'
   error bounds of the reference objective. *)
let check_equilibrated_optimum ~c ~g ~h cone ~ref_obj ~ref_error =
  let status, (x, _, _), error = solve_equilibrated ~c ~g ~h cone in
  if status <> Socp.Optimal then
    Error (Format.asprintf "scaled solve not optimal: %a" Socp.pp_status status)
  else
    let obj = Vec.dot c x in
    let bound = ref_error +. error in
    if Float.abs (obj -. ref_obj) > bound then
      Error
        (Printf.sprintf "optimum drifted: %.9f vs %.9f, bound %.3e" ref_obj
           obj bound)
    else Ok ()

let direct_reference ~c ~g ~h cone =
  let r = Socp.solve ~c ~g ~h cone in
  (r, Vec.dot c r.Socp.x, objective_error ~c ~g ~h (r.Socp.x, r.Socp.s, r.Socp.z))

(* min x + y s.t. x ≥ 1, y ≥ 2 → optimum 3, with the two constraint
   rows scaled seven orders of magnitude apart.  Row scaling does not
   change the feasible set, so the optimum is unchanged; the 1e7
   dynamic range trips both the auto-detector and the equilibrator. *)
let test_equilibrate_lp_exact () =
  let g =
    Sparse_rows.of_mat (Mat.of_rows [ [| -1e4; 0.0 |]; [| 0.0; -1e-3 |] ])
  in
  let h = [| -1e4; -2e-3 |] in
  let c = [| 1.0; 1.0 |] in
  let cone = Cone.make [ Cone.Nonneg 2 ] in
  Alcotest.(check bool) "detected as badly scaled" true
    (Presolve.badly_scaled g);
  let status, (x, _, _), _ = solve_equilibrated ~c ~g ~h cone in
  Alcotest.(check bool) "optimal" true (status = Socp.Optimal);
  check_float 1e-5 "objective" 3.0 (Vec.dot c x);
  check_float 1e-5 "x" 1.0 x.(0);
  check_float 1e-5 "y" 2.0 x.(1)

let test_equilibrate_soc_block_uniform () =
  (* min x s.t. ‖(3, 4)‖ ≤ x with the three cone rows scaled by wildly
     different factors: block-uniform row scaling must keep the SOC
     membership intact and still find x* = 5. *)
  let g =
    Sparse_rows.of_mat (Mat.of_rows [ [| -1.0 |]; [| 0.0 |]; [| 0.0 |] ])
  in
  let h = [| 0.0; 3.0; 4.0 |] in
  let sc, c', g', h' =
    Presolve.equilibrate ~c:[| 1e6 |] ~g ~h (Cone.make [ Cone.Soc 3 ])
  in
  (* Every row of one SOC block must carry the same scale. *)
  Alcotest.(check bool) "block-uniform rows" true
    (sc.Presolve.row.(0) = sc.Presolve.row.(1)
    && sc.Presolve.row.(1) = sc.Presolve.row.(2));
  let sol = Socp.solve ~c:c' ~g:g' ~h:h' (Cone.make [ Cone.Soc 3 ]) in
  Alcotest.(check bool) "scaled problem optimal" true
    (sol.Socp.status = Socp.Optimal);
  let x, _, _ = Presolve.unscale_point sc ~x:sol.Socp.x ~s:sol.Socp.s ~z:sol.Socp.z in
  check_float 1e-5 "x* unscaled" 5.0 x.(0)

let test_dynamic_range () =
  Alcotest.(check bool) "well-scaled" false
    (Presolve.badly_scaled
       (Sparse_rows.of_mat (Mat.of_rows [ [| 1.0; -2.0 |]; [| 0.5; 4.0 |] ])));
  check_float 0.0 "zero matrix range" 1.0
    (Presolve.dynamic_range (Sparse_rows.of_mat (Mat.create 2 2)))

(* Random strictly-feasible LPs: h = G·x₀ + 1 (primal interior),
   c = −Gᵀ·z₀ with z₀ > 0 (dual interior), so the optimum exists and
   strong duality holds.  Scaling rows and columns through ±10³ leaves
   the optimal value unchanged; the equilibrated solve of the scaled
   data must recover it within what the two solves' residuals and gaps
   allow ([objective_error]). *)
let equilibration_property name =
  let gen =
    QCheck2.Gen.(
      let* n = int_range 2 4 in
      let* m = int_range (n + 1) (n + 3) in
      let* entries = array_size (return (m * n)) (float_range (-1.0) 1.0) in
      let* x0 = array_size (return n) (float_range (-1.0) 1.0) in
      let* z0 = array_size (return m) (float_range 0.1 1.1) in
      let* row_exp = array_size (return m) (float_range (-3.0) 3.0) in
      let* col_exp = array_size (return n) (float_range (-3.0) 3.0) in
      return (n, m, entries, x0, z0, row_exp, col_exp))
  in
  QCheck2.Test.make ~count:30 ~name gen
    (fun (n, m, entries, x0, z0, row_exp, col_exp) ->
      let g = Mat.init m n (fun i j -> entries.((i * n) + j)) in
      let h = Array.init m (fun i -> (Mat.mul_vec g x0).(i) +. 1.0) in
      let c =
        Array.init n (fun j ->
            -.Array.fold_left ( +. ) 0.0
                (Array.init m (fun i -> Mat.get g i j *. z0.(i))))
      in
      let cone = Cone.make [ Cone.Nonneg m ] in
      let reference, ref_obj, ref_error =
        direct_reference ~c ~g:(Sparse_rows.of_mat g) ~h cone
      in
      QCheck2.assume (reference.Socp.status = Socp.Optimal);
      let dr = Array.map (fun e -> 10.0 ** e) row_exp in
      let dc = Array.map (fun e -> 10.0 ** e) col_exp in
      let g2 = Mat.init m n (fun i j -> dr.(i) *. Mat.get g i j *. dc.(j)) in
      let h2 = Array.init m (fun i -> dr.(i) *. h.(i)) in
      let c2 = Array.init n (fun j -> dc.(j) *. c.(j)) in
      match
        check_equilibrated_optimum ~c:c2 ~g:(Sparse_rows.of_mat g2) ~h:h2 cone
          ~ref_obj ~ref_error
      with
      | Ok () -> true
      | Error msg -> QCheck2.Test.fail_reportf "%s" msg)

let prop_equilibration_preserves_optimum =
  equilibration_property "equilibration preserves the continuous optimum"

(* This seed draws an LP whose two objectives differ by 1.8e-6
   relative (−0.818547423 vs −0.818545940; shrunk by qcheck to
   −2.056073036 vs −2.056070910), above the fixed 1e-6 the property
   once asserted.  The scaled solve stops within its tolerances
   (residuals 6.1e-8 and 4.9e-8) at objective scale σ = 1.17e-2, so
   its bound is 8.7e-6: the drift is what the tolerances allow, not a
   solver fault. *)
let test_equilibration_seed_756867256 =
  QCheck_alcotest.to_alcotest
    ~rand:(Random.State.make [| 756867256 |])
    (equilibration_property
       "seed 756867256: equilibration preserves the optimum")

(* The same check on the paper's own instance: T1's lowered program has
   SOC blocks, whose rows share one scale. *)
let test_equilibrated_t1_matches_direct () =
  let cfg = Workloads.Gen.paper_t1 () in
  let model = (Budgetbuf.Socp_builder.build cfg).Budgetbuf.Socp_builder.model in
  match Conic.Model.lower model with
  | None -> Alcotest.fail "T1 lowered to a constant program"
  | Some { Conic.Model.c; g; h; cone; offset = _ } ->
    Alcotest.(check bool) "has SOC blocks" true
      (List.exists
         (function Cone.Soc _ -> true | Cone.Nonneg _ -> false)
         (Cone.blocks cone));
    let reference, ref_obj, ref_error = direct_reference ~c ~g ~h cone in
    Alcotest.(check bool) "direct solve optimal" true
      (reference.Socp.status = Socp.Optimal);
    (match check_equilibrated_optimum ~c ~g ~h cone ~ref_obj ~ref_error with
    | Ok () -> ()
    | Error msg -> Alcotest.fail msg)

(* ------------------------------------------------------------------ *)
(* Recovery ladder, rung by rung                                       *)
(* ------------------------------------------------------------------ *)

let plan spec =
  match Fault.of_string spec with
  | Ok p -> p
  | Error e -> Alcotest.failf "%S: %s" spec e

let fault spec = Some (plan spec)

let stage_names r =
  List.map (fun a -> Mapping.stage_name a.Mapping.stage) r.Mapping.recovery

let solve_with spec =
  Mapping.solve ~fault:(fault spec) (Workloads.Gen.paper_t1 ())

let reference_mapping () =
  match Mapping.solve (Workloads.Gen.paper_t1 ()) with
  | Ok r -> r
  | Error _ -> Alcotest.fail "clean solve failed"

let check_recovered_matches ?(compare_budgets = true) spec expected_stages =
  match solve_with spec with
  | Error e -> Alcotest.failf "%s: %a" spec Mapping.pp_error e
  | Ok r ->
    Alcotest.(check (list string)) (spec ^ " trace") expected_stages
      (stage_names r);
    Alcotest.(check int) (spec ^ " attempts")
      (List.length expected_stages)
      r.Mapping.stats.Mapping.attempts;
    Alcotest.(check (list string)) (spec ^ " verified") []
      (List.map Budgetbuf.Violation.to_string
         (Float_verify.verify (Workloads.Gen.paper_t1 ())
            r.Mapping.mapped));
    if compare_budgets then begin
      let reference = reference_mapping () in
      (* Every cone rung solves the same convex program, so whichever
         rung finally answered, the certified rounded mapping is the
         one the clean solve produces.  (The simplex fallback solves a
         different, budget-fixed program: its mapping is certified but
         not identical.) *)
      List.iter
        (fun w ->
          check_float 1e-9 "budget"
            (reference.Mapping.mapped.Config.budget w)
            (r.Mapping.mapped.Config.budget w))
        (Config.all_tasks (Workloads.Gen.paper_t1 ()))
    end

let test_rung_relaxed () =
  check_recovered_matches "stall" [ "base"; "relaxed" ]

let test_rung_fallback_lp () =
  check_recovered_matches ~compare_budgets:false "stall,attempts=2"
    [ "base"; "relaxed"; "fallback-lp" ]

let test_nan_fault_recovers () =
  match solve_with "nan,iter=1" with
  | Error e -> Alcotest.failf "nan fault not recovered: %a" Mapping.pp_error e
  | Ok r ->
    Alcotest.(check bool) "recovered" true
      (Mapping.recovered r.Mapping.recovery);
    Alcotest.(check (list string)) "verified" []
        (List.map Budgetbuf.Violation.to_string
           (Float_verify.verify (Workloads.Gen.paper_t1 ())
              r.Mapping.mapped))

let test_permanent_fault_fails_cleanly () =
  match solve_with "stall,attempts=all" with
  | Ok _ -> Alcotest.fail "permanent fault must not produce a mapping"
  | Error (Mapping.Infeasible _) -> Alcotest.fail "not an infeasibility"
  | Error (Mapping.Timed_out _) -> Alcotest.fail "not a timeout"
  | Error (Mapping.Solver_failure { cause = Mapping.Stalled; detail } as e) ->
    let contains needle hay =
      let n = String.length needle and h = String.length hay in
      let rec scan i = i + n <= h && (String.sub hay i n = needle || scan (i + 1)) in
      scan 0
    in
    Alcotest.(check string) "label" "stalled" (Mapping.label e);
    Alcotest.(check bool) "mentions the disabled fallback" true
      (contains "fallback LP disabled" detail)
  | Error e -> Alcotest.failf "%s, not stalled" (Mapping.label e)

(* The cause a fault path reaches, and the label it prints: a NaN
   iterate is caught as a stall, and a solve cut at one iteration per
   rung (its fallback disabled by the plan) is an iteration limit. *)
let test_fault_causes () =
  List.iter
    (fun (name, result, cause, label) ->
      match result with
      | Error (Mapping.Solver_failure f as e) ->
        Alcotest.(check bool) (name ^ " cause") true (f.cause = cause);
        Alcotest.(check string) (name ^ " label") label (Mapping.label e)
      | Error e -> Alcotest.failf "%s: %a" name Mapping.pp_error e
      | Ok _ -> Alcotest.failf "%s: solved" name)
    [
      ("stall", solve_with "stall,attempts=all", Mapping.Stalled, "stalled");
      ("nan", solve_with "nan,attempts=all", Mapping.Stalled, "stalled");
      ( "iteration limit",
        Mapping.solve
          ~params:{ Socp.default_params with Socp.max_iter = 1 }
          ~fault:(fault "dense_kkt,attempts=all")
          (Workloads.Gen.paper_t1 ()),
        Mapping.Iteration_limit,
        "iteration limit" );
    ]

let test_no_recovery_policy () =
  (* The full default ladder with no fault injected (not even one
     from BUDGETBUF_FAULT): a clean solve stops at its first rung. *)
  let cfg = Workloads.Gen.paper_t1 () in
  match Mapping.solve ~fault:None cfg with
  | Error e -> Alcotest.failf "clean solve failed: %a" Mapping.pp_error e
  | Ok r ->
    Alcotest.(check (list string)) "single base attempt" [ "base" ]
      (stage_names r);
    Alcotest.(check bool) "not recovered" false
      (Mapping.recovered r.Mapping.recovery)

(* ------------------------------------------------------------------ *)
(* Fault observability                                                 *)
(* ------------------------------------------------------------------ *)

(* Every fired fault leaves exactly one matching trace
   (docs/observability.md): each faulted solver attempt produces one
   [Fault_injected] and one faulted [Rung_exit] carrying the same
   label, while [bad_round] — which sabotages the rounding step, not
   the solver — produces one [Fault_injected] and no faulted rung at
   all (and none when the instance is infeasible, because rounding
   never runs).  The trace also agrees with the record: the
   [Rung_exit] events of an [Ok] solve carry, in order, the stages and
   statuses of its [Mapping.recovery].  Checked on random instances
   across all four kinds and [stall,attempts=2], which climbs to the
   simplex rung; the [slow] kind costs a real 0.5 s sleep per case, so
   the seed split keeps it rare. *)
let prop_fault_trace_matches_plan =
  QCheck.Test.make ~count:24
    ~name:"each fired fault emits exactly one matching trace event"
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
      let spec =
        match seed mod 8 with
        | 0 | 1 -> "stall"
        | 2 | 3 -> "nan"
        | 4 | 5 -> "bad_round"
        | 6 -> "stall,attempts=2"
        | _ -> "slow"
      in
      let fault = plan spec in
      let kind = Fault.kind_name fault.Fault.kind in
      let rng = Workloads.Rng.create (Int64.of_int seed) in
      let cfg =
        if seed mod 2 = 0 then
          Workloads.Gen.random_chain rng ~n:(2 + (seed mod 4)) ()
        else
          Workloads.Gen.multi_job rng
            ~jobs:(1 + (seed mod 3))
            ~tasks_per_job:(2 + (seed mod 2))
            ~procs:(1 + (seed mod 3))
            ()
      in
      let sink = Obs.Sink.ring ~capacity:4096 in
      let obs = Obs.Ctx.make ~sink () in
      let result = Mapping.solve ~fault:(Some fault) ~obs cfg in
      let events = Obs.Sink.events sink in
      let exits =
        List.filter_map
          (fun e ->
            match e.Obs.Trace.event with
            | Obs.Trace.Rung_exit { attempt; stage; status; _ } ->
              Some (attempt, (stage, status))
            | _ -> None)
          events
      in
      let injected, faulted_exits =
        List.fold_left
          (fun (inj, exits) e ->
            match e.Obs.Trace.event with
            | Obs.Trace.Fault_injected { kind = k; _ } when String.equal k kind
              ->
              (inj + 1, exits)
            | Obs.Trace.Rung_exit { fault = Some k; _ } when String.equal k kind
              ->
              (inj, exits + 1)
            | _ -> (inj, exits))
          (0, 0) events
      in
      let faults_match =
        if String.equal kind "bad_round" then
          let expected = match result with Ok _ -> 1 | Error _ -> 0 in
          injected = expected && faulted_exits = 0
        else
          let covered =
            List.length
              (List.filter
                 (fun (attempt, _) -> Fault.covers (Some fault) ~attempt)
                 exits)
          in
          covered >= 1 && injected = covered && faulted_exits = covered
      in
      let record_matches =
        match result with
        | Error _ -> true
        | Ok r ->
          List.map snd exits
          = List.map
              (fun a -> (Mapping.stage_name a.Mapping.stage, a.Mapping.status))
              r.Mapping.recovery
      in
      faults_match && record_matches)

(* ------------------------------------------------------------------ *)
(* Failure-tolerant sweeps                                             *)
(* ------------------------------------------------------------------ *)

module Pareto = Budgetbuf.Pareto
module Dse = Budgetbuf.Dse
module Tradeoff = Budgetbuf.Tradeoff

let test_pareto_survives_failing_candidate () =
  let cfg = Workloads.Gen.paper_t1 () in
  let clean = Pareto.frontier ~steps:5 cfg in
  let faulty =
    Pool.with_pool ~domains:4 @@ fun pool ->
    Pareto.frontier ~steps:5
      ~fault:(fault "stall,attempts=all,only=1")
      ~pool cfg
  in
  Alcotest.(check (list (pair (float 0.0) string))) "clean sweep skips none"
    [] clean.Pareto.skipped;
  (match faulty.Pareto.skipped with
  | [ (_, reason) ] -> Alcotest.(check string) "reason" "stalled" reason
  | sk -> Alcotest.failf "expected one skipped candidate, got %d"
            (List.length sk));
  Alcotest.(check bool) "remaining points survive" true
    (faulty.Pareto.points <> []);
  (* Every clean point that did not come from the sabotaged candidate
     is still on the faulty frontier. *)
  let failed_ratio = List.hd (List.map fst faulty.Pareto.skipped) in
  List.iter
    (fun p ->
      if p.Pareto.weight_ratio <> failed_ratio then
        Alcotest.(check bool) "point preserved" true
          (List.exists
             (fun q ->
               q.Pareto.weight_ratio = p.Pareto.weight_ratio
               && q.Pareto.buffer_containers = p.Pareto.buffer_containers)
             faulty.Pareto.points))
    clean.Pareto.points

let test_throughput_curve_reports_skips () =
  let cfg = Workloads.Gen.paper_t1 () in
  let curve =
    Dse.throughput_curve ~fault:(fault "stall,attempts=all,only=2") cfg
      ~caps:[ 1; 2; 4; 8 ]
  in
  Alcotest.(check int) "three candidates survive" 3
    (List.length (Dse.curve_points curve));
  match
    Mapping.skipped (fun (p : Dse.curve_point) -> (p.cap, p.outcome)) curve
  with
  | [ (cap, reason) ] ->
    Alcotest.(check int) "failed cap" 4 cap;
    Alcotest.(check string) "reason" "stalled" reason
  | sk -> Alcotest.failf "expected one skip, got %d" (List.length sk)

(* A dse cap's bound solve climbs the recovery ladder of
   [Mapping.solve], so the faults the old probe search absorbed land
   there: a stalled base rung is recovered by the relaxed one at every
   cap, a stall on every rung leaves each cap a [stalled] skip, and a
   corrupted rounding is refuted (an [uncertifiable] skip), never
   mistaken for an infeasible cap. *)
let test_dse_faults_climb_the_ladder () =
  let caps = [ 1; 2; 3; 4 ] in
  List.iter
    (fun (name, cfg) ->
      let run plan =
        let obs = Obs.Ctx.make () in
        let curve = Dse.throughput_curve ~fault:plan ~obs cfg ~caps in
        (curve, Obs.Ctx.report obs)
      in
      let clean, _ = run None in
      let stalled, report = run (fault "stall") in
      Alcotest.(check int)
        (name ^ ": every cap certified under stall")
        4
        (List.length (Dse.curve_points stalled));
      Alcotest.(check bool)
        (name ^ ": base and relaxed rung per cap")
        true
        (List.mem "rungs: base=4 relaxed=4" report);
      let always, _ = run (fault "stall,attempts=all") in
      Alcotest.(check (list (pair int string)))
        (name ^ ": every cap stalled")
        (List.map (fun cap -> (cap, "stalled")) caps)
        (Mapping.skipped
           (fun (p : Dse.curve_point) -> (p.cap, p.outcome))
           always);
      let bad, _ = run (fault "bad_round") in
      List.iter2
        (fun (c : Dse.curve_point) (b : Dse.curve_point) ->
          match (c.outcome, b.outcome) with
          | Ok (Some _), Ok None ->
            Alcotest.failf "%s cap %d: infeasible under bad_round" name c.cap
          | _ -> ())
        clean bad)
    [
      ("t1", Workloads.Gen.paper_t1 ());
      ( "multijob3",
        Workloads.Gen.multi_job (Workloads.Rng.create 1L) ~jobs:3
          ~tasks_per_job:3 ~procs:3 () );
    ]

let test_capacity_sweep_reports_skips () =
  let cfg = Workloads.Gen.paper_t1 () in
  let buffers = Config.all_buffers cfg in
  let points =
    Tradeoff.capacity_sweep ~fault:(fault "stall,attempts=all,only=0") cfg
      ~buffers ~caps:[ 1; 2; 3 ]
  in
  Alcotest.(check int) "all caps reported" 3 (List.length points);
  match
    Mapping.skipped (fun (p : Tradeoff.point) -> (p.cap, p.result)) points
  with
  | [ (cap, reason) ] ->
    Alcotest.(check int) "failed cap" 1 cap;
    Alcotest.(check string) "reason" "stalled" reason
  | sk -> Alcotest.failf "expected one skip, got %d" (List.length sk)

(* ------------------------------------------------------------------ *)
(* Pool.map_result                                                     *)
(* ------------------------------------------------------------------ *)

let test_map_result_outcomes () =
  Pool.with_pool ~domains:4 @@ fun pool ->
  let outcomes =
    Pool.map_result pool
      (fun i -> if i mod 3 = 1 then failwith (string_of_int i) else i * i)
      (List.init 8 Fun.id)
  in
  Alcotest.(check int) "slot count" 8 (List.length outcomes);
  List.iteri
    (fun i outcome ->
      match outcome with
      | Ok v ->
        Alcotest.(check bool) "success slot" true (i mod 3 <> 1);
        Alcotest.(check int) "value" (i * i) v
      | Error (Failure msg) ->
        Alcotest.(check bool) "failure slot" true (i mod 3 = 1);
        Alcotest.(check string) "message" (string_of_int i) msg
      | Error e -> Alcotest.failf "unexpected exception %s" (Printexc.to_string e))
    outcomes;
  (* The pool survives the failures. *)
  Alcotest.(check (list (of_pp Fmt.int))) "pool usable afterwards"
    [ 2; 4; 6 ]
    (Pool.map pool (fun x -> 2 * x) [ 1; 2; 3 ])

let test_map_result_empty_and_sequential () =
  Pool.with_pool ~domains:2 @@ fun pool ->
  Alcotest.(check int) "empty input" 0
    (List.length (Pool.map_result pool (fun x -> x) []));
  let seq =
    Pool.with_pool ~domains:1 @@ fun p1 ->
    Pool.map_result p1 (fun i -> 10 * i) [ 1; 2; 3 ]
  in
  Alcotest.(check bool) "sequential pool agrees" true
    (List.map Result.get_ok seq
    = List.map Result.get_ok (Pool.map_result pool (fun i -> 10 * i) [ 1; 2; 3 ]))

(* ------------------------------------------------------------------ *)

let () =
  let qcheck = QCheck_alcotest.to_alcotest in
  Alcotest.run "robust"
    [
      ( "fault",
        [
          Alcotest.test_case "spec parsing" `Quick test_fault_parse;
          Alcotest.test_case "spec roundtrip" `Quick test_fault_roundtrip;
          Alcotest.test_case "candidates and coverage" `Quick
            test_fault_candidate_and_coverage;
          Alcotest.test_case "spec parity table" `Quick test_spec_parity;
        ] );
      ( "presolve",
        [
          Alcotest.test_case "scaled LP solved exactly" `Quick
            test_equilibrate_lp_exact;
          Alcotest.test_case "SOC rows block-uniform" `Quick
            test_equilibrate_soc_block_uniform;
          Alcotest.test_case "dynamic range" `Quick test_dynamic_range;
          qcheck prop_equilibration_preserves_optimum;
          test_equilibration_seed_756867256;
          Alcotest.test_case "equilibrated T1 matches direct" `Quick
            test_equilibrated_t1_matches_direct;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "rung 2: relaxed" `Quick test_rung_relaxed;
          Alcotest.test_case "rung 3: simplex fallback" `Quick
            test_rung_fallback_lp;
          Alcotest.test_case "nan fault recovers" `Quick
            test_nan_fault_recovers;
          Alcotest.test_case "permanent fault fails cleanly" `Quick
            test_permanent_fault_fails_cleanly;
          Alcotest.test_case "fault causes" `Quick test_fault_causes;
          Alcotest.test_case "no_recovery policy" `Quick
            test_no_recovery_policy;
          qcheck prop_fault_trace_matches_plan;
        ] );
      ( "sweeps",
        [
          Alcotest.test_case "pareto survives a failing candidate" `Quick
            test_pareto_survives_failing_candidate;
          Alcotest.test_case "throughput curve reports skips" `Quick
            test_throughput_curve_reports_skips;
          Alcotest.test_case "capacity sweep reports skips" `Quick
            test_capacity_sweep_reports_skips;
          Alcotest.test_case "dse faults climb the ladder" `Quick
            test_dse_faults_climb_the_ladder;
        ] );
      ( "pool",
        [
          Alcotest.test_case "map_result outcomes" `Quick
            test_map_result_outcomes;
          Alcotest.test_case "map_result empty + sequential" `Quick
            test_map_result_empty_and_sequential;
        ] );
    ]
