module Vec = Linalg.Vec
module Mat = Linalg.Mat
module Cholesky = Linalg.Cholesky

let src = Logs.Src.create "conic.socp" ~doc:"interior-point SOCP solver"

module Log = (val Logs.src_log src : Logs.LOG)

type status =
  | Optimal
  | Primal_infeasible
  | Dual_infeasible
  | Iteration_limit
  | Stalled
  | Timed_out

type solution = {
  status : status;
  x : Vec.t;
  s : Vec.t;
  z : Vec.t;
  primal_objective : float;
  dual_objective : float;
  gap : float;
  primal_residual : float;
  dual_residual : float;
  iterations : int;
  kkt_fallbacks : int;
}

type fault = Stall | Nan | Slow | Dense_kkt

type presolve = Presolve_off | Presolve_auto | Presolve_force

type warm = { wx : Vec.t; ws : Vec.t; wz : Vec.t }

type params = {
  max_iter : int;
  feastol : float;
  abstol : float;
  reltol : float;
  step_fraction : float;
  presolve : presolve;
  inject : (int -> fault option) option;
  deadline : (unit -> bool) option;
  obs : Obs.Ctx.t option;
  warm : warm option;
}

(* feastol 1e-7 reflects what dense normal-equation KKT solves can
   reliably deliver; the relaxed exits accept down to 1e3× of these. *)
let default_params =
  { max_iter = 100; feastol = 1e-7; abstol = 1e-7; reltol = 1e-7;
    step_fraction = 0.99; presolve = Presolve_auto; inject = None;
    deadline = None; obs = None; warm = None }

let pp_status ppf = function
  | Optimal -> Format.pp_print_string ppf "optimal"
  | Primal_infeasible -> Format.pp_print_string ppf "primal infeasible"
  | Dual_infeasible -> Format.pp_print_string ppf "dual infeasible"
  | Iteration_limit -> Format.pp_print_string ppf "iteration limit"
  | Stalled -> Format.pp_print_string ppf "stalled"
  | Timed_out -> Format.pp_print_string ppf "timed out"

let emit_obs params ev =
  match params.obs with None -> () | Some o -> Obs.Ctx.emit o ev

(* A [Nonneg] row with more nonzeros than this is a shared-resource
   row — constraint (9) over one processor's budgets or (10) over one
   memory's buffers — whose outer product would put a clique of that
   size into GᵀW⁻²G.  Every other row of Algorithm 1 (cycle, bound and
   cone rows) has at most a handful of nonzeros.  Such dense rows stay
   out of the sparse factor and come back as a low-rank update. *)
let dense_row_threshold = 16

(* The once-per-solve sparse KKT context: the structural pattern of
   GᵀW⁻²G without the dense rows (fixed across iterations — NT scaling
   mixes rows only within one second-order block), its symbolic
   Cholesky analysis, and the dense orthant rows left out of both. *)
type sparse_kkt = {
  pattern : Linalg.Sparse.sym;
  symbolic : Linalg.Sparse.symbolic;
  dense : int array;
}

let make_sparse_kkt ~params ~gsp cone =
  let soc, orthant =
    let off = ref 0 in
    List.partition_map
      (fun b ->
        let o = !off in
        match b with
        | Cone.Nonneg d ->
          off := o + d;
          Either.Right (o, d)
        | Cone.Soc d ->
          off := o + d;
          Either.Left (o, d))
      (Cone.blocks cone)
  in
  let dense =
    Sparse_rows.dense_rows gsp ~among:orthant ~above:dense_row_threshold
  in
  let pattern =
    Sparse_rows.gram_pattern (Sparse_rows.drop_rows gsp dense) ~soc
  in
  let symbolic = Linalg.Sparse.symbolic pattern in
  emit_obs params
    (Obs.Trace.Kkt_factor
       {
         backend = "sparse";
         phase = "symbolic";
         n = Sparse_rows.cols gsp;
         nnz = Linalg.Sparse.factor_nnz symbolic;
       });
  { pattern; symbolic; dense }

(* Sherman–Morrison–Woodbury on M = M_s + A·Aᵀ, where M_s is factored
   in [fact] and the columns of A are the scaled dense rows [rows]:
     M⁻¹b = y − U·C⁻¹·(Aᵀy),  y = M_s⁻¹b,  U = M_s⁻¹A,  C = I + AᵀU.
   With no dense rows this is the plain sparse solve.
   @raise Cholesky.Not_positive_definite if C is not positive definite. *)
let woodbury ~n fact rows =
  if Array.length rows = 0 then Linalg.Sparse.solve fact
  else begin
    let u =
      Array.map
        (fun r ->
          let a = Vec.create n in
          List.iter (fun (j, v) -> a.(j) <- v) r;
          Linalg.Sparse.solve fact a)
        rows
    in
    let k = Array.length rows in
    let cap = Mat.create k k in
    for i = 0 to k - 1 do
      for l = 0 to i do
        let v =
          (if i = l then 1.0 else 0.0) +. Sparse_rows.row_dot rows.(i) u.(l)
        in
        Mat.set cap i l v;
        Mat.set cap l i v
      done
    done;
    let cf = Cholesky.factor cap in
    fun b ->
      let y = Linalg.Sparse.solve fact b in
      let w =
        Cholesky.solve cf (Array.map (fun r -> Sparse_rows.row_dot r y) rows)
      in
      Array.iteri (fun l ul -> Vec.axpy (-.w.(l)) ul y) u;
      y
  end

(* Per-solve n×n storage of the dense fallback, the Gram matrix and its
   Cholesky factor, overwritten by every iteration that takes it.  Lazy,
   so a solve allocates it only on its first fallback iteration. *)
type dense_store = { gram : Mat.t; chol : Mat.t }

let dense_store n = lazy { gram = Mat.create n n; chol = Mat.create n n }

(* Solve the 2×2 scaled KKT system
     Gᵀ·dz        = bx
     G·dx − W²·dz = bz
   via dz = W⁻²·(G·dx − bz) and the normal equations
   (Gᵀ·W⁻²·G)·dx = bx + Gᵀ·W⁻²·bz, factorised once per iteration.

   [sparse] carries the once-per-solve symbolic analysis, so each
   iteration only refills the fixed pattern, runs the numeric
   refactorisation and adds the dense rows back through [woodbury];
   when the sparse factorisation or the capacitance matrix fails (or a
   [Dense_kkt] fault forces it) the iteration falls back to a dense
   Cholesky of the full Gram matrix, counted in [fallbacks]. *)
let make_kkt ~params ~fallbacks ~sparse ~store ~force_dense ~gsp w =
  let { pattern; symbolic; dense } = sparse in
  (* The sparse rows of G have a handful of entries each, so the scaled
     matrix W⁻¹·G and its Gram matrix are formed in O(Σ nnz(row)²)
     instead of densifying. *)
  let scaled =
    Sparse_rows.scale_rows gsp ~blocks:(Cone.block_layout w)
      ~scale_block:(Cone.apply_inv_rows w)
  in
  (* Two rounds of iterative refinement, measured against the full
     matrix, recover the digits lost when the factorisation needed a
     diagonal shift near convergence. *)
  let refined ~apply ~solve rhs =
    let dx = solve rhs in
    for _ = 1 to 2 do
      let r = Vec.sub rhs (apply dx) in
      Vec.axpy 1.0 (solve r) dx
    done;
    dx
  in
  let dense_refined () =
    let { gram; chol } = Lazy.force store in
    let mmat = Sparse_rows.gram ~into:gram scaled in
    let fact = Cholesky.factor ~max_shift:1e-2 ~into:chol mmat in
    refined ~apply:(Mat.mul_vec mmat) ~solve:(Cholesky.solve fact)
  in
  let fall_back () =
    incr fallbacks;
    emit_obs params
      (Obs.Trace.Kkt_factor
         {
           backend = "dense";
           phase = "fallback";
           n = Sparse_rows.cols gsp;
           nnz = 0;
         });
    dense_refined ()
  in
  let solve_refined =
    if force_dense then fall_back ()
    else begin
      Sparse_rows.fill_gram (Sparse_rows.drop_rows scaled dense) ~into:pattern;
      let rows = Array.map (Sparse_rows.row scaled) dense in
      match
        woodbury ~n:(Sparse_rows.cols gsp)
          (Linalg.Sparse.factor ~max_shift:1e-2 symbolic pattern)
          rows
      with
      | exception
          (Linalg.Sparse.Not_positive_definite | Cholesky.Not_positive_definite)
        ->
        fall_back ()
      | solve ->
        emit_obs params
          (Obs.Trace.Kkt_factor
             {
               backend = "sparse";
               phase = "numeric";
               n = Sparse_rows.cols gsp;
               nnz = Linalg.Sparse.factor_nnz symbolic;
             });
        (* M·x = M_s·x + Σ aᵢ·(aᵢᵀx). *)
        let apply x =
          let y = Linalg.Sparse.mul_vec pattern x in
          Array.iter
            (fun r ->
              let t = Sparse_rows.row_dot r x in
              List.iter (fun (j, a) -> y.(j) <- y.(j) +. (a *. t)) r)
            rows;
          y
        in
        refined ~apply ~solve
    end
  in
  fun ~bx ~bz ->
    let wbz = Cone.apply_inv w (Cone.apply_inv w bz) in
    let rhs = Vec.add bx (Sparse_rows.mul_tvec gsp wbz) in
    let dx = solve_refined rhs in
    let dz =
      Cone.apply_inv w
        (Cone.apply_inv w (Vec.sub (Sparse_rows.mul_vec gsp dx) bz))
    in
    (dx, dz)

let kkt_solve ~g cone ~s ~z ~bx ~bz =
  let params = default_params in
  let sparse = make_sparse_kkt ~params ~gsp:g cone in
  let fallbacks = ref 0 in
  let w = Cone.nt_scaling cone ~s ~z in
  let store = dense_store (Sparse_rows.cols g) in
  let dx, dz =
    make_kkt ~params ~fallbacks ~sparse ~store ~force_dense:false ~gsp:g w ~bx
      ~bz
  in
  (dx, dz, !fallbacks)

(* The solver runs on the homogeneous self-dual embedding

     G·x + s − h·τ          = 0        (s ∈ K)
     Gᵀ·z + c·τ             = 0        (z ∈ K)
     −cᵀ·x − hᵀ·z − κ       = 0        (τ, κ ≥ 0)

   whose nonzero solutions encode either an optimal pair (τ > 0) or an
   infeasibility certificate (κ > 0, τ = 0).  This avoids the classic
   failure of plain infeasible-start methods where the complementarity
   gap collapses before the residuals do. *)
let solve_direct ~params ~c ~g:gsp ~h cone =
  let n = Vec.dim c and m = Vec.dim h in
  if m = 0 then begin
    (* No constraints: optimum 0 iff c = 0, otherwise unbounded below. *)
    let status =
      if Vec.nrm2 c <= params.feastol then Optimal else Dual_infeasible
    in
    {
      status;
      x = Vec.create n;
      s = Vec.create 0;
      z = Vec.create 0;
      primal_objective = 0.0;
      dual_objective = 0.0;
      gap = 0.0;
      primal_residual = 0.0;
      dual_residual = Vec.nrm2 c;
      iterations = 0;
      kkt_fallbacks = 0;
    }
  end
  else begin
    let deg = float_of_int (Cone.degree cone + 1) in
    (* Per-solve mutable state only (no globals): safe across domains. *)
    let fallbacks = ref 0 in
    let sparse = make_sparse_kkt ~params ~gsp cone in
    let store = dense_store n in
    let norm_h = Float.max 1.0 (Vec.nrm2 h)
    and norm_c = Float.max 1.0 (Vec.nrm2 c) in
    let e = Cone.identity cone in
    let x = ref (Vec.create n)
    and s = ref (Vec.copy e)
    and z = ref (Vec.copy e)
    and tau = ref 1.0
    and kappa = ref 1.0 in
    (* Warm start: seed (x, s, z) from a caller-supplied point — in a
       sweep, the neighbouring candidate's solution.  The homogeneous
       embedding tolerates any strictly interior seed with τ = κ = 1,
       so s and z are pushed a small margin inside the cone; a point
       with the wrong dimensions or non-finite entries falls back to
       the cold start silently (the sweep must never fail because its
       neighbour did). *)
    (match params.warm with
    | None -> ()
    | Some { wx; ws; wz } ->
      let finite v = Array.for_all Float.is_finite v in
      let reject reason =
        emit_obs params (Obs.Trace.Warm_start { accepted = false; reason })
      in
      if Vec.dim wx <> n || Vec.dim ws <> m || Vec.dim wz <> m then
        reject "dimension mismatch"
      else if not (finite wx && finite ws && finite wz) then
        reject "non-finite"
      else begin
        let interior v =
          let u = Vec.copy v in
          let margin =
            1e-4 *. Float.max 1.0 (Vec.nrm2 v /. sqrt (float_of_int m))
          in
          let me = Cone.min_eig cone u in
          if me < margin then Vec.axpy (margin -. me) e u;
          u
        in
        x := Vec.copy wx;
        s := interior ws;
        z := interior wz;
        emit_obs params (Obs.Trace.Warm_start { accepted = true; reason = "ok" })
      end);
    (* Best iterate seen so far: near the numerical floor later
       iterations can degrade, so Stalled/Iteration_limit exits restore
       the snapshot with the smallest combined error. *)
    let best_score = ref infinity in
    let best_state = ref None in
    let last_improvement = ref 0 in
    (* Step length that produced the current iterate, reported with the
       iteration trace event (0 before the first step). *)
    let last_step = ref 0.0 in
    let scaled () =
      let t = !tau in
      ( Vec.scale (1.0 /. t) !x,
        Vec.scale (1.0 /. t) !s,
        Vec.scale (1.0 /. t) !z )
    in
    let result status iterations =
      let xt, st, zt = scaled () in
      let pres =
        Vec.nrm2 (Vec.sub (Vec.add (Sparse_rows.mul_vec gsp xt) st) h) /. norm_h
      in
      let dres = Vec.nrm2 (Vec.add (Sparse_rows.mul_tvec gsp zt) c) /. norm_c in
      {
        status;
        x = xt;
        s = st;
        z = zt;
        primal_objective = Vec.dot c xt;
        dual_objective = -.Vec.dot h zt;
        gap = Vec.dot st zt;
        primal_residual = pres;
        dual_residual = dres;
        iterations;
        kkt_fallbacks = !fallbacks;
      }
    in
    let result_certificate status iterations =
      (* Report the raw homogeneous ray, normalised by the certificate
         magnitude rather than by τ. *)
      let denom =
        match status with
        | Primal_infeasible -> Float.max 1e-300 (-.Vec.dot h !z)
        | _ -> Float.max 1e-300 (-.Vec.dot c !x)
      in
      {
        status;
        x = Vec.scale (1.0 /. denom) !x;
        s = Vec.scale (1.0 /. denom) !s;
        z = Vec.scale (1.0 /. denom) !z;
        primal_objective = nan;
        dual_objective = nan;
        gap = nan;
        primal_residual = nan;
        dual_residual = nan;
        iterations;
        kkt_fallbacks = !fallbacks;
      }
    in
    let rec iterate iter =
      (* Cooperative deadline: polled once per iteration, before the
         (expensive) Cholesky work.  Expiry returns the best τ-scaled
         iterate with status [Timed_out]; there is no signal and no
         asynchronous interruption, so the iterate is always
         consistent. *)
      if (match params.deadline with None -> false | Some expired -> expired ())
      then result Timed_out iter
      else
        (* Deterministic fault injection (tests only): a [Stall] returns
           the current iterate with status [Stalled] outright — bypassing
           the relaxed-acceptance exits, so the failure is guaranteed — a
           [Nan] poisons the iterate and lets the solver's own guards
           (NaN step, non-interior scaling, indefinite Gram matrix) trip
           on the next pass, exercising the natural failure paths.  A
           [Slow] sleeps half a second and then proceeds normally: the
           way tests plant a wall-clock-pathological candidate without
           fishing for one. *)
        (match params.inject with
        | None -> None
        | Some f -> f iter)
        |> function
        | Some Stall -> result Stalled iter
        | Some Nan ->
          !s.(0) <- nan;
          !z.(0) <- nan;
          iterate_clean ~force_dense:false (iter + 1)
        | Some Slow ->
          Unix.sleepf 0.5;
          iterate_clean ~force_dense:false iter
        | Some Dense_kkt ->
          (* Force this iteration's sparse factorisation onto the dense
             fallback path — the deterministic way tests exercise the
             fallback accounting without fishing for a singular KKT. *)
          iterate_clean ~force_dense:true iter
        | None -> iterate_clean ~force_dense:false iter
    and iterate_clean ~force_dense iter =
      (* Homogeneous residuals. *)
      let hx = Sparse_rows.mul_vec gsp !x in
      let res_z =
        (* G·x + s − h·τ *)
        let r = Vec.add hx !s in
        Vec.axpy (-. !tau) h r;
        r
      in
      let res_x =
        (* Gᵀ·z + c·τ *)
        let r = Sparse_rows.mul_tvec gsp !z in
        Vec.axpy !tau c r;
        r
      in
      let res_tau = -.Vec.dot c !x -. Vec.dot h !z -. !kappa in
      let gap_h = Vec.dot !s !z +. (!tau *. !kappa) in
      let mu = gap_h /. deg in
      (* Convergence checks on the τ-scaled iterate. *)
      let xt, st, zt = scaled () in
      let pres =
        Vec.nrm2 (Vec.sub (Vec.add (Sparse_rows.mul_vec gsp xt) st) h) /. norm_h
      in
      let dres = Vec.nrm2 (Vec.add (Sparse_rows.mul_tvec gsp zt) c) /. norm_c in
      let pcost = Vec.dot c xt and dcost = -.Vec.dot h zt in
      let gap = Vec.dot st zt in
      let relgap =
        let denom =
          Float.max 1.0 (Float.min (Float.abs pcost) (Float.abs dcost))
        in
        Float.abs (pcost -. dcost) /. denom
      in
      Log.debug (fun f ->
          f
            "iter %2d  pcost % .6e  dcost % .6e  gap %.2e  pres %.2e  dres \
             %.2e  tau %.2e  kappa %.2e"
            iter pcost dcost gap pres dres !tau !kappa);
      (match params.obs with
      | None -> ()
      | Some o ->
        Obs.Ctx.emit o
          (Obs.Trace.Socp_iter
             { iter; pres; dres; gap; step = !last_step }));
      (* Relaxed acceptance used when progress dries up: the iterate is
         still returned as Optimal if it is accurate to ~1e3× the target
         tolerances (mirrors the "close to optimal" exit of ECOS). *)
      let score_of pres dres gap relgap =
        Float.max (Float.max pres dres)
          (Float.min (Float.max 0.0 gap) (Float.max 0.0 relgap))
      in
      let score = score_of pres dres gap relgap in
      if score < 0.9 *. !best_score then last_improvement := iter;
      if score < !best_score then begin
        best_score := score;
        best_state :=
          Some (Vec.copy !x, Vec.copy !s, Vec.copy !z, !tau)
      end;
      let restore_best () =
        match !best_state with
        | None -> ()
        | Some (bx, bs, bz, bt) ->
          x := bx;
          s := bs;
          z := bz;
          tau := bt
      in
      let accept_at scale =
        pres <= params.feastol *. scale
        && dres <= params.feastol *. scale
        && (gap <= params.abstol *. scale || relgap <= params.reltol *. scale)
      in
      let finish_or status =
        (* τ collapsing while κ stays bounded is the homogeneous
           embedding's infeasibility ray even when the algebraic
           certificate has not fully converged. *)
        if !kappa > 1e6 *. !tau then begin
          if Vec.dot h !z < 0.0 then result_certificate Primal_infeasible iter
          else if Vec.dot c !x < 0.0 then
            result_certificate Dual_infeasible iter
          else result status iter
        end
        else begin
          restore_best ();
          let scale = !best_score /. params.feastol in
          if scale <= 1e3 then result Optimal iter else result status iter
        end
      in
      if accept_at 1.0 then result Optimal iter
      else if iter - !last_improvement > 8 then finish_or Stalled
      else begin
        (* Certificate checks: κ dominating τ signals infeasibility. *)
        let hz = Vec.dot h !z and cx = Vec.dot c !x in
        let cert_threshold = params.feastol in
        let primal_cert =
          hz < 0.0
          && Vec.nrm2 (Sparse_rows.mul_tvec gsp !z) /. (-.hz)
             <= cert_threshold *. norm_c
        in
        let dual_cert =
          cx < 0.0
          && Vec.nrm2 (Vec.add (Sparse_rows.mul_vec gsp !x) !s) /. (-.cx)
             <= cert_threshold *. norm_h
        in
        if !kappa > 1e6 *. !tau && primal_cert then
          result_certificate Primal_infeasible iter
        else if !kappa > 1e6 *. !tau && dual_cert then
          result_certificate Dual_infeasible iter
        else if iter >= params.max_iter then
          if primal_cert then result_certificate Primal_infeasible iter
          else if dual_cert then result_certificate Dual_infeasible iter
          else finish_or Iteration_limit
        else begin
          match Cone.nt_scaling cone ~s:!s ~z:!z with
          | exception Invalid_argument _ -> finish_or Stalled
          | w -> begin
            match
              make_kkt ~params ~fallbacks ~sparse ~store ~force_dense ~gsp w
            with
            | exception Cholesky.Not_positive_definite -> finish_or Stalled
            | kkt ->
              let lam = Cone.lambda w in
              (* Constant second solve: (x₂, z₂) with rhs (−c, h). *)
              let x2, z2 = kkt ~bx:(Vec.neg c) ~bz:h in
              let ctx2 = Vec.dot c x2 and htz2 = Vec.dot h z2 in
              let denom_tau = (!kappa /. !tau) -. ctx2 -. htz2 in
              (* One Newton direction for right-hand sides (ds, dkappa)
                 of the complementarity equations. *)
              let direction ~ds ~dkappa =
                let lam_div = Cone.div cone lam ds in
                let bz =
                  (* Δs is eliminated as Δs = W·(λ\ds) − W²·Δz, so the
                     primal row becomes G·Δx − W²·Δz = −res_z − W·(λ\ds)
                     (+ h·Δτ handled via the second solve). *)
                  let b = Vec.neg res_z in
                  Vec.axpy (-1.0) (Cone.apply w lam_div) b;
                  b
                in
                let x1, z1 = kkt ~bx:(Vec.neg res_x) ~bz in
                let dtau =
                  (-.res_tau +. (dkappa /. !tau) +. Vec.dot c x1
                 +. Vec.dot h z1)
                  /. denom_tau
                in
                let dx = Vec.copy x1 in
                Vec.axpy dtau x2 dx;
                let dz = Vec.copy z1 in
                Vec.axpy dtau z2 dz;
                let ds =
                  (* W·(λ\ds) − W²·Δz *)
                  let t = Vec.sub lam_div (Cone.apply w dz) in
                  Cone.apply w t
                in
                let dkap = (dkappa -. (!kappa *. dtau)) /. !tau in
                (dx, ds, dz, dtau, dkap)
              in
              let max_step_all (_, ds, dz, dtau, dkap) =
                let a = Cone.max_step cone !s ds in
                let b = Cone.max_step cone !z dz in
                let c1 = if dtau < 0.0 then -. !tau /. dtau else infinity in
                let c2 = if dkap < 0.0 then -. !kappa /. dkap else infinity in
                Float.min (Float.min a b) (Float.min c1 c2)
              in
              (* Predictor. *)
              let aff =
                direction
                  ~ds:(Vec.neg (Cone.prod cone lam lam))
                  ~dkappa:(-. (!tau *. !kappa))
              in
              let alpha_a = Float.min 1.0 (max_step_all aff) in
              let sigma = (1.0 -. alpha_a) ** 3.0 in
              (* Corrector with Mehrotra second-order term. *)
              let _, ds_a, dz_a, dtau_a, dkap_a = aff in
              let corr_s =
                Cone.prod cone (Cone.apply_inv w ds_a) (Cone.apply w dz_a)
              in
              let ds_rhs =
                (* σµe − λ∘λ − corr *)
                let d = Vec.scale (-1.0) (Cone.prod cone lam lam) in
                Vec.axpy (-1.0) corr_s d;
                Vec.axpy (sigma *. mu) e d;
                d
              in
              let dkappa_rhs =
                (sigma *. mu) -. (!tau *. !kappa) -. (dtau_a *. dkap_a)
              in
              let dir = direction ~ds:ds_rhs ~dkappa:dkappa_rhs in
              let dx, ds, dz, dtau, dkap = dir in
              let alpha = max_step_all dir in
              let step = Float.min 1.0 (params.step_fraction *. alpha) in
              if step <= 1e-12 || Float.is_nan step then finish_or Stalled
              else begin
                last_step := step;
                Vec.axpy step dx !x;
                Vec.axpy step ds !s;
                Vec.axpy step dz !z;
                tau := !tau +. (step *. dtau);
                kappa := !kappa +. (step *. dkap);
                iterate (iter + 1)
              end
          end
        end
      end
    in
    iterate 0
  end

(* Map a solution of the equilibrated problem back to the original
   data.  Optimal (and stalled/limit) points get their objectives and
   residuals recomputed on the original (c, G, h); infeasibility rays
   are renormalised to the certificate magnitude, matching what
   [result_certificate] reports on an unscaled solve. *)
let unscale_solution sc ~c ~g:gsp ~h sol =
  let x, s, z = Presolve.unscale_point sc ~x:sol.x ~s:sol.s ~z:sol.z in
  match sol.status with
  | Primal_infeasible ->
    let denom = Float.max 1e-300 (-.Vec.dot h z) in
    {
      sol with
      x = Vec.scale (1.0 /. denom) x;
      s = Vec.scale (1.0 /. denom) s;
      z = Vec.scale (1.0 /. denom) z;
    }
  | Dual_infeasible ->
    let denom = Float.max 1e-300 (-.Vec.dot c x) in
    {
      sol with
      x = Vec.scale (1.0 /. denom) x;
      s = Vec.scale (1.0 /. denom) s;
      z = Vec.scale (1.0 /. denom) z;
    }
  | Optimal | Iteration_limit | Stalled | Timed_out ->
    let norm_h = Float.max 1.0 (Vec.nrm2 h)
    and norm_c = Float.max 1.0 (Vec.nrm2 c) in
    let pres =
      Vec.nrm2 (Vec.sub (Vec.add (Sparse_rows.mul_vec gsp x) s) h) /. norm_h
    in
    let dres = Vec.nrm2 (Vec.add (Sparse_rows.mul_tvec gsp z) c) /. norm_c in
    {
      status = sol.status;
      x;
      s;
      z;
      primal_objective = Vec.dot c x;
      dual_objective = -.Vec.dot h z;
      gap = Vec.dot s z;
      primal_residual = pres;
      dual_residual = dres;
      iterations = sol.iterations;
      kkt_fallbacks = sol.kkt_fallbacks;
    }

let solve ?(params = default_params) ~c ~g ~h cone =
  let n = Vec.dim c and m = Vec.dim h in
  if Sparse_rows.rows g <> m || Sparse_rows.cols g <> n then
    invalid_arg "Socp.solve: G dimensions do not match c and h";
  if Cone.dim cone <> m then invalid_arg "Socp.solve: cone dimension";
  (match params.obs with
  | None -> ()
  | Some o -> Obs.Ctx.emit o (Obs.Trace.Solve_start { rows = m; cols = n }));
  let t0 =
    match params.obs with None -> 0.0 | Some _ -> Obs.Clock.now ()
  in
  let equilibrate =
    match params.presolve with
    | Presolve_off -> false
    | Presolve_force -> m > 0
    (* Auto: only pay for scaling (and give up the bit-identical
       iteration path) when the data actually spans many orders of
       magnitude. *)
    | Presolve_auto -> m > 0 && Presolve.badly_scaled g
  in
  let sol =
    if not equilibrate then solve_direct ~params ~c ~g ~h cone
    else begin
      let sc, c', g', h' = Presolve.equilibrate ~c ~g ~h cone in
      let range_before = Presolve.dynamic_range g
      and range_after = Presolve.dynamic_range g' in
      Log.debug (fun f ->
          f "presolve: Ruiz equilibration, dynamic range %.2e -> %.2e"
            range_before range_after);
      (match params.obs with
      | None -> ()
      | Some o ->
        Obs.Ctx.emit o (Obs.Trace.Presolve { range_before; range_after }));
      (* A warm point lives in the original coordinates; map it forward
         through the equilibration (the inverse of
         [Presolve.unscale_point]) so it seeds the scaled solve. *)
      let params =
        match params.warm with
        | Some { wx; ws; wz }
          when Vec.dim wx = n && Vec.dim ws = m && Vec.dim wz = m ->
          let warm =
            Some
              {
                wx = Array.mapi (fun i v -> v /. sc.Presolve.col.(i)) wx;
                ws = Array.mapi (fun i v -> v *. sc.Presolve.row.(i)) ws;
                wz =
                  Array.mapi
                    (fun i v -> v *. sc.Presolve.obj /. sc.Presolve.row.(i))
                    wz;
              }
          in
          { params with warm }
        | Some _ | None -> params
      in
      let sol = solve_direct ~params ~c:c' ~g:g' ~h:h' cone in
      unscale_solution sc ~c ~g ~h sol
    end
  in
  (match params.obs with
  | None -> ()
  | Some o ->
    Obs.Ctx.emit o
      (Obs.Trace.Solve_end
         {
           status = Format.asprintf "%a" pp_status sol.status;
           iterations = sol.iterations;
           time_s = Obs.Clock.now () -. t0;
         }));
  sol
