(* Tests for the interior-point cone solver: cone algebra, analytic
   SOCPs, LP cross-checks against simplex, and KKT-based properties. *)

module Vec = Linalg.Vec
module Mat = Linalg.Mat
module Cone = Conic.Cone
module Socp = Conic.Socp
module Model = Conic.Model
module Sparse_rows = Conic.Sparse_rows

let check_float eps = Alcotest.(check (float eps))

(* ------------------------------------------------------------------ *)
(* Cone algebra                                                       *)
(* ------------------------------------------------------------------ *)

let k_mixed = Cone.make [ Cone.Nonneg 2; Cone.Soc 3 ]

let test_cone_dims () =
  Alcotest.(check int) "dim" 5 (Cone.dim k_mixed);
  Alcotest.(check int) "degree" 3 (Cone.degree k_mixed)

let test_cone_identity () =
  let e = Cone.identity k_mixed in
  Alcotest.(check bool) "e" true
    (Vec.equal ~eps:0.0 e [| 1.; 1.; 1.; 0.; 0. |])

let test_cone_membership () =
  Alcotest.(check bool) "inside" true
    (Cone.mem k_mixed [| 1.; 0.5; 2.0; 1.0; 1.0 |]);
  Alcotest.(check bool) "soc violated" false
    (Cone.mem k_mixed [| 1.; 1.; 1.0; 1.0; 1.0 |]);
  Alcotest.(check bool) "orthant violated" false
    (Cone.mem k_mixed [| -0.1; 1.; 2.; 0.; 0. |])

let test_cone_min_eig () =
  check_float 1e-12 "min eig"
    (2.0 -. sqrt 2.0)
    (Cone.min_eig k_mixed [| 3.; 4.; 2.; 1.; 1. |])

let test_jordan_identity () =
  let u = [| 0.3; 1.2; 2.0; -0.5; 0.7 |] in
  let e = Cone.identity k_mixed in
  Alcotest.(check bool) "e ∘ u = u" true
    (Vec.equal ~eps:1e-12 (Cone.prod k_mixed e u) u)

let test_jordan_div () =
  (* div inverts prod: λ ∘ (λ \ d) = d for interior λ. *)
  let lam = [| 2.0; 0.7; 3.0; 1.0; -0.5 |] in
  let d = [| 1.0; -2.0; 0.5; 4.0; 1.5 |] in
  let u = Cone.div k_mixed lam d in
  Alcotest.(check bool) "λ∘(λ\\d) = d" true
    (Vec.equal ~eps:1e-9 (Cone.prod k_mixed lam u) d)

let test_max_step_orthant () =
  let k = Cone.make [ Cone.Nonneg 2 ] in
  check_float 1e-12 "blocking" 0.5 (Cone.max_step k [| 1.; 2. |] [| -2.; 1. |]);
  Alcotest.(check bool) "unblocked" true
    (Cone.max_step k [| 1.; 2. |] [| 1.; 0. |] = infinity)

let test_max_step_soc () =
  let k = Cone.make [ Cone.Soc 2 ] in
  (* u = (1, 0), du = (0, 1): boundary at t² = α² → α = 1. *)
  check_float 1e-9 "diagonal hit" 1.0 (Cone.max_step k [| 1.; 0. |] [| 0.; 1. |]);
  (* Moving deeper inside: no bound. *)
  Alcotest.(check bool) "inward" true
    (Cone.max_step k [| 2.; 0. |] [| 1.; 0. |] = infinity);
  (* Exact boundary check: stepping along the cone axis from boundary. *)
  let a = Cone.max_step k [| 1.; 1. |] [| 1.; 0. |] in
  Alcotest.(check bool) "from boundary outward-safe" true (a >= 0.0)

let test_max_step_consistency () =
  (* After stepping 0.999·α_max the point is still (weakly) in the cone;
     after 1.01·α_max it is not. *)
  let k = Cone.make [ Cone.Soc 3 ] in
  let u = [| 2.0; 1.0; 0.5 |] and du = [| -1.0; 0.3; 0.8 |] in
  let a = Cone.max_step k u du in
  Alcotest.(check bool) "finite" true (Float.is_finite a);
  let at t =
    let v = Vec.copy u in
    Vec.axpy t du v;
    v
  in
  Alcotest.(check bool) "inside before" true
    (Cone.mem ~eps:1e-9 k (at (0.999 *. a)));
  Alcotest.(check bool) "outside after" false
    (Cone.mem ~eps:1e-9 k (at (1.01 *. a)))

let test_nt_scaling_lambda () =
  (* λ = W·z = W⁻¹·s must agree computed both ways. *)
  let k = k_mixed in
  let s = [| 1.5; 0.8; 3.0; 1.0; -0.5 |] and z = [| 0.5; 2.0; 2.0; -0.3; 0.9 |] in
  let w = Cone.nt_scaling k ~s ~z in
  let lam = Cone.lambda w in
  Alcotest.(check bool) "W·z = λ" true
    (Vec.equal ~eps:1e-9 (Cone.apply w z) lam);
  Alcotest.(check bool) "W⁻¹·s = λ" true
    (Vec.equal ~eps:1e-9 (Cone.apply_inv w s) lam);
  (* W⁻¹ inverts W. *)
  let u = [| 0.1; -2.0; 1.0; 0.2; 0.3 |] in
  Alcotest.(check bool) "W⁻¹·W = id" true
    (Vec.equal ~eps:1e-9 (Cone.apply_inv w (Cone.apply w u)) u)

let test_nt_scaling_interior_required () =
  Alcotest.check_raises "not interior"
    (Invalid_argument "Cone.nt_scaling: point not strictly interior")
    (fun () ->
      ignore
        (Cone.nt_scaling k_mixed ~s:[| 0.0; 1.; 1.; 0.; 0. |]
           ~z:[| 1.; 1.; 1.; 0.; 0. |]))

(* ------------------------------------------------------------------ *)
(* Socp on analytic problems                                          *)
(* ------------------------------------------------------------------ *)

(* G as sparse rows, from dense row literals. *)
let g_of rows = Sparse_rows.of_mat (Mat.of_rows rows)

(* min x  s.t. ‖(3, 4)‖ ≤ x  → x* = 5.  Cone rows: s = (x, 3, 4). *)
let test_socp_norm_bound () =
  let g = g_of [ [| -1.0 |]; [| 0.0 |]; [| 0.0 |] ] in
  let h = [| 0.0; 3.0; 4.0 |] in
  let sol = Socp.solve ~c:[| 1.0 |] ~g ~h (Cone.make [ Cone.Soc 3 ]) in
  Alcotest.(check bool) "optimal" true (sol.Socp.status = Socp.Optimal);
  check_float 1e-6 "x*" 5.0 sol.Socp.x.(0)

(* min x + y s.t. x ≥ 1, y ≥ 2 → 3, plain LP through the IPM. *)
let test_socp_as_lp () =
  let g = g_of [ [| -1.0; 0.0 |]; [| 0.0; -1.0 |] ] in
  let h = [| -1.0; -2.0 |] in
  let sol =
    Socp.solve ~c:[| 1.0; 1.0 |] ~g ~h (Cone.make [ Cone.Nonneg 2 ])
  in
  Alcotest.(check bool) "optimal" true (sol.Socp.status = Socp.Optimal);
  check_float 1e-6 "obj" 3.0 sol.Socp.primal_objective;
  check_float 1e-6 "gap small" 0.0 sol.Socp.gap

let test_socp_duality () =
  (* At optimality primal and dual objectives coincide. *)
  let g = g_of [ [| -1.0 |]; [| 0.0 |]; [| 0.0 |] ] in
  let h = [| 0.0; 3.0; 4.0 |] in
  let sol = Socp.solve ~c:[| 1.0 |] ~g ~h (Cone.make [ Cone.Soc 3 ]) in
  check_float 1e-5 "strong duality" sol.Socp.primal_objective
    sol.Socp.dual_objective

let test_socp_infeasible () =
  (* x ≤ 1 ∧ x ≥ 2 is primal infeasible. *)
  let g = g_of [ [| 1.0 |]; [| -1.0 |] ] in
  let h = [| 1.0; -2.0 |] in
  let sol = Socp.solve ~c:[| 0.0 |] ~g ~h (Cone.make [ Cone.Nonneg 2 ]) in
  Alcotest.(check bool) "primal infeasible" true
    (sol.Socp.status = Socp.Primal_infeasible)

let test_socp_unbounded () =
  (* min x s.t. −x ≤ 0 (x ≥ 0 missing: s = x... take min x, x ≤ 5:
     unbounded below). *)
  let g = g_of [ [| 1.0 |] ] in
  let h = [| 5.0 |] in
  let sol = Socp.solve ~c:[| 1.0 |] ~g ~h (Cone.make [ Cone.Nonneg 1 ]) in
  Alcotest.(check bool) "dual infeasible (unbounded)" true
    (sol.Socp.status = Socp.Dual_infeasible)

(* ------------------------------------------------------------------ *)
(* Model layer                                                        *)
(* ------------------------------------------------------------------ *)

let test_model_lp () =
  let m = Model.create () in
  let x = Model.variable m "x" and y = Model.variable m "y" in
  Model.add_ge m (Model.var x) (Model.const 1.0);
  Model.add_ge m (Model.var y) (Model.const 2.0);
  Model.add_le m (Model.add (Model.var x) (Model.var y)) (Model.const 10.0);
  Model.minimize m (Model.add (Model.var x) (Model.var y));
  let r = Model.solve m in
  Alcotest.(check bool) "optimal" true (r.Model.status = Socp.Optimal);
  check_float 1e-6 "obj" 3.0 r.Model.objective;
  check_float 1e-6 "x" 1.0 (r.Model.value x);
  check_float 1e-6 "y" 2.0 (r.Model.value y)

let test_model_soc () =
  (* min t s.t. ‖(x−1, y−2)‖ ≤ t, i.e. distance to the point (1,2);
     x, y free → t* = 0. *)
  let m = Model.create () in
  let t = Model.variable m "t"
  and x = Model.variable m "x"
  and y = Model.variable m "y" in
  Model.add_soc m ~head:(Model.var t)
    ~tail:
      [
        Model.sub (Model.var x) (Model.const 1.0);
        Model.sub (Model.var y) (Model.const 2.0);
      ];
  Model.minimize m (Model.var t);
  let r = Model.solve m in
  Alcotest.(check bool) "optimal" true (r.Model.status = Socp.Optimal);
  check_float 1e-4 "t*" 0.0 r.Model.objective;
  check_float 1e-3 "x" 1.0 (r.Model.value x);
  check_float 1e-3 "y" 2.0 (r.Model.value y)

let test_model_hyperbolic () =
  (* min a + b s.t. a·b ≥ 1, a,b ≥ 0 → a = b = 1, objective 2. *)
  let m = Model.create () in
  let a = Model.variable m "a" and b = Model.variable m "b" in
  Model.add_ge0 m (Model.var a);
  Model.add_ge0 m (Model.var b);
  Model.add_hyperbolic m ~a:(Model.var a) ~b:(Model.var b) ~bound:1.0;
  Model.minimize m (Model.add (Model.var a) (Model.var b));
  let r = Model.solve m in
  Alcotest.(check bool) "optimal" true (r.Model.status = Socp.Optimal);
  check_float 1e-5 "obj" 2.0 r.Model.objective;
  check_float 1e-4 "a" 1.0 (r.Model.value a);
  check_float 1e-4 "b" 1.0 (r.Model.value b)

let test_model_hyperbolic_weighted () =
  (* min 4a + b s.t. ab ≥ 1 → a = 1/2, b = 2, objective 4
     (minimise 4a + 1/a: derivative 4 − 1/a² = 0). *)
  let m = Model.create () in
  let a = Model.variable m "a" and b = Model.variable m "b" in
  Model.add_hyperbolic m ~a:(Model.var a) ~b:(Model.var b) ~bound:1.0;
  Model.minimize m (Model.add (Model.scale 4.0 (Model.var a)) (Model.var b));
  let r = Model.solve m in
  check_float 1e-5 "obj" 4.0 r.Model.objective;
  check_float 1e-4 "a" 0.5 (r.Model.value a);
  check_float 1e-4 "b" 2.0 (r.Model.value b)

let test_model_eq () =
  let m = Model.create () in
  let x = Model.variable m "x" and y = Model.variable m "y" in
  Model.add_eq m
    (Model.add (Model.var x) (Model.var y))
    (Model.const 4.0);
  Model.add_eq m (Model.sub (Model.var x) (Model.var y)) (Model.const 0.0);
  Model.minimize m (Model.affine [ (1.0, x); (2.0, y) ]);
  let r = Model.solve m in
  check_float 1e-5 "x" 2.0 (r.Model.value x);
  check_float 1e-5 "y" 2.0 (r.Model.value y)

let test_model_constant_objective () =
  (* Objective constants must be carried into the reported objective. *)
  let m = Model.create () in
  let x = Model.variable m "x" in
  Model.add_ge m (Model.var x) (Model.const 1.0);
  Model.minimize m (Model.add (Model.var x) (Model.const 10.0));
  let r = Model.solve m in
  check_float 1e-6 "obj includes const" 11.0 r.Model.objective

let test_model_sizes () =
  let m = Model.create () in
  let x = Model.variable m "x" in
  Model.add_ge0 m (Model.var x);
  Model.add_soc m ~head:(Model.var x) ~tail:[ Model.const 1.0 ];
  Alcotest.(check int) "vars" 1 (Model.num_variables m);
  Alcotest.(check int) "rows" 3 (Model.num_rows m)

(* ------------------------------------------------------------------ *)
(* Cross-check with simplex on random LPs                             *)
(* ------------------------------------------------------------------ *)

let gen_feasible_lp =
  let open QCheck2.Gen in
  let dim_m = 4 and dim_n = 3 in
  let entry = float_range (-3.0) 3.0 in
  let* rows = array_size (return dim_m) (array_size (return dim_n) entry) in
  let* x0 = array_size (return dim_n) (float_range 0.0 4.0) in
  let* slack = array_size (return dim_m) (float_range 0.5 3.0) in
  let* c = array_size (return dim_n) (float_range 0.1 4.0) in
  return (rows, x0, slack, c)

module Simplex_alias = Simplex.Lp

let prop_ipm_matches_simplex =
  QCheck2.Test.make ~name:"IPM and simplex agree on random LPs" ~count:60
    gen_feasible_lp
    (fun (rows, x0, slack, c) ->
      let n = Array.length x0 in
      let row_dot row =
        snd
          (Array.fold_left
             (fun (j, acc) a -> (j + 1, acc +. (a *. x0.(j))))
             (0, 0.0) row)
      in
      let rhs = Array.mapi (fun i row -> slack.(i) +. row_dot row) rows in
      (* simplex *)
      let p = Simplex_alias.create () in
      let vars =
        Array.init n (fun i ->
            Simplex_alias.add_variable p ~name:(Printf.sprintf "x%d" i) ())
      in
      Array.iteri
        (fun i row ->
          ignore (Simplex_alias.add_constraint p (Array.to_list (Array.mapi (fun j a -> (a, vars.(j))) row)) Simplex_alias.Le rhs.(i)))
        rows;
      Simplex_alias.set_objective p
        (Array.to_list (Array.mapi (fun j k -> (k, vars.(j))) c));
      let simplex_obj =
        match Simplex_alias.solve p with
        | Simplex_alias.Optimal { objective; _ } -> objective
        | _ -> Alcotest.fail "simplex should be optimal"
      in
      (* IPM via the model layer *)
      let m = Model.create () in
      let mv =
        Array.init n (fun i -> Model.variable m (Printf.sprintf "x%d" i))
      in
      Array.iter (fun v -> Model.add_ge0 m (Model.var v)) mv;
      Array.iteri
        (fun i row ->
          Model.add_le m
            (Model.affine
               (Array.to_list (Array.mapi (fun j a -> (a, mv.(j))) row)))
            (Model.const rhs.(i)))
        rows;
      Model.minimize m
        (Model.affine (Array.to_list (Array.mapi (fun j k -> (k, mv.(j))) c)));
      let r = Model.solve m in
      r.Model.status = Socp.Optimal
      && Float.abs (r.Model.objective -. simplex_obj)
         <= 1e-5 *. Float.max 1.0 (Float.abs simplex_obj))

let prop_socp_kkt =
  (* For random strictly feasible SOCPs: solution satisfies primal
     feasibility and complementarity to tolerance. *)
  QCheck2.Test.make ~name:"random SOCP solutions satisfy KKT" ~count:40
    QCheck2.Gen.(
      pair
        (array_size (return 3) (float_range (-2.0) 2.0))
        (float_range 1.0 5.0))
    (fun (center, radius) ->
      (* min cᵀx s.t. ‖x − center‖ ≤ radius, c = ones: optimum at
         center − radius/√3 · 1. *)
      let n = Array.length center in
      let m = Model.create () in
      let xs = Array.init n (fun i -> Model.variable m (Printf.sprintf "x%d" i)) in
      Model.add_soc m ~head:(Model.const radius)
        ~tail:
          (Array.to_list
             (Array.mapi (fun i v -> Model.sub (Model.var v) (Model.const center.(i))) xs));
      Model.minimize m (Model.sum (Array.to_list (Array.map Model.var xs)));
      let r = Model.solve m in
      if r.Model.status <> Socp.Optimal then false
      else begin
        let expected =
          Array.fold_left ( +. ) 0.0 center -. (radius *. sqrt (float_of_int n))
        in
        Float.abs (r.Model.objective -. expected) <= 1e-4 *. Float.max 1.0 (Float.abs expected)
      end)


(* ------------------------------------------------------------------ *)
(* Sparse row assembly                                                 *)
(* ------------------------------------------------------------------ *)

let gen_sparse_mat =
  (* Random 6x4 matrices with ~70% zero entries. *)
  QCheck2.Gen.(
    array_size (return 6)
      (array_size (return 4)
         (let* keep = int_range 0 9 in
          if keep < 7 then return 0.0 else float_range (-3.0) 3.0)))

let prop_sparse_products_match_dense =
  QCheck2.Test.make ~name:"sparse mul_vec/mul_tvec match dense" ~count:200
    QCheck2.Gen.(
      triple gen_sparse_mat
        (array_size (return 4) (float_range (-2.0) 2.0))
        (array_size (return 6) (float_range (-2.0) 2.0)))
    (fun (rows, x, y) ->
      let a = Mat.of_arrays rows in
      let sp = Sparse_rows.of_mat a in
      Vec.equal ~eps:1e-12 (Sparse_rows.mul_vec sp x) (Mat.mul_vec a x)
      && Vec.equal ~eps:1e-12 (Sparse_rows.mul_tvec sp y) (Mat.mul_tvec a y))

let prop_sparse_scaled_gram_matches_dense =
  (* With an NT scaling over a mixed cone, the sparse block-wise Gram
     GᵀW⁻²G must equal the dense computation. *)
  QCheck2.Test.make ~name:"sparse scaled Gram matches dense" ~count:100
    QCheck2.Gen.(
      triple gen_sparse_mat
        (array_size (return 6) (float_range 0.2 3.0))
        (array_size (return 6) (float_range 0.2 3.0)))
    (fun (rows, s_raw, z_raw) ->
      let a = Mat.of_arrays rows in
      let k = Cone.make [ Cone.Nonneg 3; Cone.Soc 3 ] in
      (* Force s and z strictly inside: bump the SOC heads. *)
      let fix v =
        let v = Array.copy v in
        v.(3) <- v.(3) +. sqrt ((v.(4) ** 2.0) +. (v.(5) ** 2.0)) +. 0.5;
        v
      in
      let s = fix s_raw and z = fix z_raw in
      let w = Cone.nt_scaling k ~s ~z in
      let sp = Sparse_rows.of_mat a in
      let ws = Conic.Kkt.create ~g:sp k in
      Conic.Kkt.scale_rows ws w;
      let scaled = Conic.Kkt.scaled ws in
      let gram_sparse = Sparse_rows.gram scaled in
      (* Dense reference: apply W⁻¹ to each column of A. *)
      let dense_scaled =
        Mat.init 6 4 (fun i j ->
            (Cone.apply_inv w (Mat.col a j)).(i))
      in
      let gram_dense = Mat.gram dense_scaled in
      Mat.equal ~eps:1e-9 gram_sparse gram_dense
      && Vec.equal ~eps:1e-9
           (Sparse_rows.mul_vec scaled [| 1.0; -2.0; 0.5; 3.0 |])
           (Mat.mul_vec dense_scaled [| 1.0; -2.0; 0.5; 3.0 |]))



(* ------------------------------------------------------------------ *)
(* Variable pinning and solver parameters                              *)
(* ------------------------------------------------------------------ *)

let test_model_fix_value_and_objective () =
  (* min x + y s.t. x + y ≥ 3 with y pinned at 2 → x = 1, obj 3. *)
  let m = Model.create () in
  let x = Model.variable m "x" and y = Model.variable m "y" in
  Model.add_ge m (Model.add (Model.var x) (Model.var y)) (Model.const 3.0);
  Model.add_ge0 m (Model.var x);
  Model.fix m y 2.0;
  Model.minimize m (Model.add (Model.var x) (Model.var y));
  let r = Model.solve m in
  Alcotest.(check bool) "optimal" true (r.Model.status = Socp.Optimal);
  check_float 1e-5 "y pinned" 2.0 (r.Model.value y);
  check_float 1e-5 "x" 1.0 (r.Model.value x);
  check_float 1e-5 "objective includes pin" 3.0 r.Model.objective

let test_model_fix_infeasible () =
  (* Pinning against a constraint makes the program infeasible. *)
  let m = Model.create () in
  let x = Model.variable m "x" in
  Model.add_le m (Model.var x) (Model.const 1.0);
  Model.fix m x 5.0;
  Model.minimize m (Model.var x);
  let r = Model.solve m in
  Alcotest.(check bool) "primal infeasible" true
    (r.Model.status = Socp.Primal_infeasible)

let test_socp_iteration_limit_status () =
  (* A one-iteration budget cannot converge; the solver must report it
     rather than claim optimality. *)
  let g = g_of [ [| -1.0 |]; [| 0.0 |]; [| 0.0 |] ] in
  let h = [| 0.0; 3.0; 4.0 |] in
  let params = { Socp.default_params with Socp.max_iter = 1 } in
  let sol = Socp.solve ~params ~c:[| 1.0 |] ~g ~h (Cone.make [ Cone.Soc 3 ]) in
  Alcotest.(check bool) "not optimal" true
    (sol.Socp.status = Socp.Iteration_limit)

let test_complementary_slackness () =
  (* At optimality s and z are complementary: sᵀz ≈ 0 with both in the
     cone, orthant coordinates pairwise. *)
  let m = Model.create () in
  let x = Model.variable m "x" and y = Model.variable m "y" in
  Model.add_ge m (Model.var x) (Model.const 1.0);
  Model.add_ge m (Model.var y) (Model.const 2.0);
  Model.add_le m (Model.add (Model.var x) (Model.var y)) (Model.const 10.0);
  Model.minimize m (Model.add (Model.var x) (Model.var y));
  let r = Model.solve m in
  let raw = r.Model.raw in
  check_float 1e-5 "gap" 0.0 raw.Socp.gap;
  Array.iteri
    (fun i si ->
      Alcotest.(check bool) "pairwise complementary" true
        (Float.abs (si *. raw.Socp.z.(i)) <= 1e-5))
    raw.Socp.s

let test_model_unconstrained_zero_objective () =
  let m = Model.create () in
  let _x = Model.variable m "x" in
  Model.minimize m (Model.const 7.0);
  let r = Model.solve m in
  check_float 1e-9 "constant objective" 7.0 r.Model.objective


(* ------------------------------------------------------------------ *)
(* Lowering to sparse rows                                             *)
(* ------------------------------------------------------------------ *)

(* A random model whose every row keeps a free variable (so no block is
   constant): repeated variables, fixed variables, a pair of terms on
   an otherwise unused variable that cancels exactly, equalities and
   SOC blocks, over coefficients whose sums round differently in a
   different order. *)
let random_lowering_model seed =
  let rng = Workloads.Rng.create (Int64.of_int seed) in
  let int bound = Workloads.Rng.int rng ~bound in
  let coefs =
    [| 1.0; -1.0; 0.1; -0.2; 0.3; 1.0 /. 3.0; 1e16; -1e16; 1e-17; 2.5 |]
  in
  let coef () =
    coefs.(int (Array.length coefs)) *. Workloads.Rng.float rng ~lo:0.5 ~hi:2.0
  in
  let m = Model.create () in
  let n = 3 + int 5 in
  let vars =
    Array.init n (fun i -> Model.variable m (Printf.sprintf "x%d" i))
  in
  let free = List.filter (fun i -> i = 0 || int 3 > 0) (List.init n Fun.id) in
  Array.iteri
    (fun i v -> if not (List.mem i free) then Model.fix m v (coef ()))
    vars;
  let pick l = List.nth l (int (List.length l)) in
  let insert x l =
    let at = int (List.length l + 1) in
    List.filteri (fun i _ -> i < at) l
    @ (x :: List.filteri (fun i _ -> i >= at) l)
  in
  let expr () =
    let terms = List.init (1 + int 6) (fun _ -> (coef (), vars.(int n))) in
    let terms = insert (coef (), vars.(pick free)) terms in
    let terms =
      if int 2 = 0 then terms
      else begin
        let k = coef () and v = vars.(int n) in
        insert (-.k, v) (insert (k, v) terms)
      end
    in
    Model.affine ~const:(coef ()) terms
  in
  for _ = 1 to 1 + int 8 do
    match int 4 with
    | 0 ->
      Model.add_soc m ~head:(expr ())
        ~tail:(List.init (1 + int 3) (fun _ -> expr ()))
    | 1 -> Model.add_eq m (expr ()) (expr ())
    | _ -> Model.add_ge0 m (expr ())
  done;
  Model.minimize m (expr ());
  m

(* The lowering Model ran before it emitted sparse rows: a dense G
   accumulated term by term (G_row −= k, fixed variables folded into
   h), objective and cone alike, then [Sparse_rows.of_mat]. *)
let dense_lowering (snap : Model.snapshot) =
  let fixed v = List.assoc_opt v snap.Model.snap_fixed in
  let exprs =
    List.concat_map
      (function `Nonneg e -> [ e ] | `Soc es -> es)
      snap.Model.snap_rows
  in
  let n = Array.length snap.Model.snap_vars and rows = List.length exprs in
  let g = Mat.create rows n and h = Vec.create rows in
  List.iteri
    (fun row (terms, const) ->
      List.iter
        (fun (k, v) ->
          match fixed v with
          | Some value -> h.(row) <- h.(row) +. (k *. value)
          | None -> Mat.update g row v (fun x -> x -. k))
        terms;
      h.(row) <- h.(row) +. const)
    exprs;
  let c = Vec.create n in
  List.iter
    (fun (k, v) -> if fixed v = None then c.(v) <- c.(v) +. k)
    (fst snap.Model.snap_objective);
  let blocks =
    List.fold_left
      (fun acc r ->
        match (r, acc) with
        | `Nonneg _, Cone.Nonneg q :: rest -> Cone.Nonneg (q + 1) :: rest
        | `Nonneg _, _ -> Cone.Nonneg 1 :: acc
        | `Soc es, _ -> Cone.Soc (List.length es) :: acc)
      [] snap.Model.snap_rows
  in
  (c, g, h, List.rev blocks)

(* The Ruiz equilibration Presolve ran on a dense G. *)
let dense_equilibrate ~c ~g ~h cone =
  let m = Mat.rows g and n = Mat.cols g in
  let a = Mat.copy g in
  let row = Vec.make m 1.0 and col = Vec.make n 1.0 in
  let groups, _ =
    List.fold_left
      (fun (acc, off) b ->
        match b with
        | Cone.Nonneg q -> (acc, off + q)
        | Cone.Soc q -> ((off, q) :: acc, off + q))
      ([], 0) (Cone.blocks cone)
  in
  for _ = 1 to 10 do
    let rnorm = Vec.create m and cnorm = Vec.create n in
    for i = 0 to m - 1 do
      for j = 0 to n - 1 do
        let v = Float.abs (Mat.get a i j) in
        if v > rnorm.(i) then rnorm.(i) <- v;
        if v > cnorm.(j) then cnorm.(j) <- v
      done
    done;
    List.iter
      (fun (off, len) ->
        let mx = ref 0.0 in
        for i = off to off + len - 1 do
          mx := Float.max !mx rnorm.(i)
        done;
        Array.fill rnorm off len !mx)
      groups;
    let e = Array.map (fun c -> if c > 0.0 then 1.0 /. sqrt c else 1.0) cnorm in
    for i = 0 to m - 1 do
      let di = if rnorm.(i) > 0.0 then 1.0 /. sqrt rnorm.(i) else 1.0 in
      row.(i) <- row.(i) *. di;
      for j = 0 to n - 1 do
        Mat.set a i j (Mat.get a i j *. di *. e.(j))
      done
    done;
    for j = 0 to n - 1 do
      col.(j) <- col.(j) *. e.(j)
    done
  done;
  let mx = ref 0.0 in
  Array.iteri (fun j cj -> mx := Float.max !mx (Float.abs (col.(j) *. cj))) c;
  let obj = if !mx > 0.0 then 1.0 /. !mx else 1.0 in
  ( (row, col, obj),
    Array.mapi (fun j cj -> obj *. col.(j) *. cj) c,
    a,
    Array.mapi (fun i hi -> row.(i) *. hi) h )

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)
let same_vec a b = Vec.dim a = Vec.dim b && Array.for_all2 same_bits a b

let same_rows a b =
  Sparse_rows.rows a = Sparse_rows.rows b
  && Sparse_rows.cols a = Sparse_rows.cols b
  && List.for_all
       (fun i ->
         List.equal
           (fun (j, v) (j', v') -> j = j' && same_bits v v')
           (Sparse_rows.row a i) (Sparse_rows.row b i))
       (List.init (Sparse_rows.rows a) Fun.id)

let prop_lowering_matches_dense =
  QCheck2.Test.make ~name:"model lowers to the dense G, h and c bit for bit"
    ~count:300 (QCheck2.Gen.int_range 0 1_000_000) (fun seed ->
      let m = random_lowering_model seed in
      match Model.lower m with
      | None -> false
      | Some p ->
        let c, g, h, blocks = dense_lowering (Model.snapshot m) in
        same_rows p.Model.g (Sparse_rows.of_mat g)
        && same_vec p.Model.h h && same_vec p.Model.c c
        && Cone.blocks p.Model.cone = blocks)

let prop_equilibrate_matches_dense =
  QCheck2.Test.make
    ~name:"sparse equilibration matches the dense one bit for bit"
    ~count:300 (QCheck2.Gen.int_range 0 1_000_000) (fun seed ->
      let m = random_lowering_model seed in
      match Model.lower m with
      | None -> false
      | Some { Model.c; g; h; cone; _ } ->
        let _, dense_g, _, _ = dense_lowering (Model.snapshot m) in
        let sc, c', g', h' = Conic.Presolve.equilibrate ~c ~g ~h cone in
        let (row, col, obj), dc, dg, dh =
          dense_equilibrate ~c ~g:dense_g ~h cone
        in
        same_vec sc.Conic.Presolve.row row
        && same_vec sc.Conic.Presolve.col col
        && same_bits sc.Conic.Presolve.obj obj
        && same_vec c' dc && same_vec h' dh
        && same_rows g' (Sparse_rows.of_mat dg))

(* ------------------------------------------------------------------ *)
(* Bit-level pin of the dense KKT path                                *)
(* ------------------------------------------------------------------ *)

(* The dense normal-equation kernel (Gram assembly, Cholesky factor,
   triangular solves) must keep the order of its floating-point
   operations.  These digests of the IEEE bits of the final x, s and z
   of cold solves with every iteration forced onto the dense fallback
   are those of the boxed kernel that preceded the flat-array one, so
   a reordering fails here instead of drifting some sweep several
   layers up ([Iterate_digest] says which platform they hold on). *)
let iterate_digest = Iterate_digest.of_solution

let dense_pin_cases =
  [
    ("paper t1", Workloads.Gen.paper_t1, "8c837e8b75548541a933e6aaa6dbfd98");
    ("paper t2", Workloads.Gen.paper_t2, "cb776aa2a5fb690e2f4ceed784fddacd");
    ( "chain 8",
      (fun () -> Workloads.Gen.chain ~n:8 ()),
      "1ff105c911588f237ffe8242cc8c8325" );
    ( "multijob 3",
      (fun () ->
        Workloads.Gen.multi_job (Workloads.Rng.create 1L) ~jobs:3
          ~tasks_per_job:3 ~procs:3 ()),
      "39b76b6c956d878c3ea5d7c08f453259" );
  ]

let test_dense_bit_pin (name, cfg, expected) () =
  let b = Budgetbuf.Socp_builder.build (cfg ()) in
  let params =
    {
      Socp.default_params with
      Socp.inject = Some (fun _ -> Some Socp.Dense_kkt);
    }
  in
  let r = Model.solve ~params b.Budgetbuf.Socp_builder.model in
  let got = iterate_digest r.Model.raw in
  Alcotest.(check string) (name ^ " iterate bits") expected got


let () =
  Alcotest.run "conic"
    [
      ( "cone",
        [
          Alcotest.test_case "dims" `Quick test_cone_dims;
          Alcotest.test_case "identity" `Quick test_cone_identity;
          Alcotest.test_case "membership" `Quick test_cone_membership;
          Alcotest.test_case "min_eig" `Quick test_cone_min_eig;
          Alcotest.test_case "jordan identity" `Quick test_jordan_identity;
          Alcotest.test_case "jordan div" `Quick test_jordan_div;
          Alcotest.test_case "max_step orthant" `Quick test_max_step_orthant;
          Alcotest.test_case "max_step soc" `Quick test_max_step_soc;
          Alcotest.test_case "max_step consistency" `Quick
            test_max_step_consistency;
          Alcotest.test_case "nt scaling" `Quick test_nt_scaling_lambda;
          Alcotest.test_case "nt interior check" `Quick
            test_nt_scaling_interior_required;
        ] );
      ( "socp",
        [
          Alcotest.test_case "norm bound" `Quick test_socp_norm_bound;
          Alcotest.test_case "lp" `Quick test_socp_as_lp;
          Alcotest.test_case "duality" `Quick test_socp_duality;
          Alcotest.test_case "infeasible" `Quick test_socp_infeasible;
          Alcotest.test_case "unbounded" `Quick test_socp_unbounded;
        ] );
      ( "model",
        [
          Alcotest.test_case "lp" `Quick test_model_lp;
          Alcotest.test_case "soc" `Quick test_model_soc;
          Alcotest.test_case "hyperbolic" `Quick test_model_hyperbolic;
          Alcotest.test_case "hyperbolic weighted" `Quick
            test_model_hyperbolic_weighted;
          Alcotest.test_case "equality" `Quick test_model_eq;
          Alcotest.test_case "constant objective" `Quick
            test_model_constant_objective;
          Alcotest.test_case "sizes" `Quick test_model_sizes;
        ] );
      ( "pinning",
        [
          Alcotest.test_case "fix value/objective" `Quick
            test_model_fix_value_and_objective;
          Alcotest.test_case "fix infeasible" `Quick test_model_fix_infeasible;
          Alcotest.test_case "iteration limit" `Quick
            test_socp_iteration_limit_status;
          Alcotest.test_case "constant objective" `Quick
            test_model_unconstrained_zero_objective;
          Alcotest.test_case "complementary slackness" `Quick
            test_complementary_slackness;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_ipm_matches_simplex;
            prop_socp_kkt;
            prop_sparse_products_match_dense;
            prop_sparse_scaled_gram_matches_dense;
          ] );
      ( "lowering",
        List.map QCheck_alcotest.to_alcotest
          [ prop_lowering_matches_dense; prop_equilibrate_matches_dense ] );
      ( "dense kkt bits",
        List.map
          (fun ((name, _, _) as case) ->
            Alcotest.test_case name `Quick (test_dense_bit_pin case))
          dense_pin_cases );
    ]
