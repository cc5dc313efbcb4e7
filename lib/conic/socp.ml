module Vec = Linalg.Vec
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

type warm = { wx : Vec.t; ws : Vec.t; wz : Vec.t }

type params = {
  max_iter : int;
  tolerance : float;
  inject : (int -> fault option) option;
}

(* A tolerance of 1e-7 reflects what dense normal-equation KKT solves
   can reliably deliver; the relaxed exits accept down to 1e3× of it. *)
let default_params =
  { max_iter = 100; tolerance = 1e-7; inject = None }

let pp_status ppf = function
  | Optimal -> Format.pp_print_string ppf "optimal"
  | Primal_infeasible -> Format.pp_print_string ppf "primal infeasible"
  | Dual_infeasible -> Format.pp_print_string ppf "dual infeasible"
  | Iteration_limit -> Format.pp_print_string ppf "iteration limit"
  | Stalled -> Format.pp_print_string ppf "stalled"
  | Timed_out -> Format.pp_print_string ppf "timed out"

let emit_obs obs ev =
  match obs with None -> () | Some o -> Obs.Ctx.emit o ev

let kkt_solve ~g cone ~s ~z ~bx ~bz =
  let ws = Kkt.create ~g cone in
  let w = Cone.nt_scaling cone ~s ~z in
  Kkt.factor ws w ~force_dense:false;
  let dx = Vec.create (Sparse_rows.cols g)
  and dz = Vec.create (Sparse_rows.rows g) in
  Kkt.solve ws w ~bx ~bz ~dx ~dz;
  (dx, dz, Kkt.fallbacks ws)

(* The solver runs on the homogeneous self-dual embedding

     G·x + s − h·τ          = 0        (s ∈ K)
     Gᵀ·z + c·τ             = 0        (z ∈ K)
     −cᵀ·x − hᵀ·z − κ       = 0        (τ, κ ≥ 0)

   whose nonzero solutions encode either an optimal pair (τ > 0) or an
   infeasibility certificate (κ > 0, τ = 0).  This avoids the classic
   failure of plain infeasible-start methods where the complementarity
   gap collapses before the residuals do. *)
let solve_direct ~params ~deadline ~obs ~warm ~c ~g:gsp ~h cone =
  let n = Vec.dim c and m = Vec.dim h in
  if m = 0 then begin
    (* No constraints: optimum 0 iff c = 0, otherwise unbounded below. *)
    let status =
      if Vec.nrm2 c <= params.tolerance then Optimal else Dual_infeasible
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
    (* Per-solve mutable state only (no globals): safe across domains.
       The KKT workspace and every vector the iteration writes are
       allocated here, once; the loop below refills them in place. *)
    let ws = Kkt.create ?obs ~g:gsp cone in
    let norm_h = Float.max 1.0 (Vec.nrm2 h)
    and norm_c = Float.max 1.0 (Vec.nrm2 c) in
    let neg_c = Vec.neg c in
    let e = Cone.identity cone in
    let x = Vec.create n and s = Vec.copy e and z = Vec.copy e in
    let tau = ref 1.0 and kappa = ref 1.0 in
    (* The homogeneous residuals and their negations as KKT inputs. *)
    let res_z = Vec.create m and res_x = Vec.create n in
    let neg_res_x = Vec.create n in
    (* The τ-scaled iterate and the residual scratch of its checks. *)
    let xt = Vec.create n and st = Vec.create m and zt = Vec.create m in
    let tmp_n = Vec.create n and tmp_m = Vec.create m in
    (* The constant second KKT solve, both Newton directions (affine
       and combined) and the Jordan-algebra scratch that builds them. *)
    let x2 = Vec.create n and z2 = Vec.create m in
    let dx_a = Vec.create n and ds_a = Vec.create m and dz_a = Vec.create m in
    let dx_c = Vec.create n and ds_c = Vec.create m and dz_c = Vec.create m in
    let lam_lam = Vec.create m and ds_in = Vec.create m in
    let lam_div = Vec.create m and bz = Vec.create m in
    let wt = Vec.create m and corr = Vec.create m in
    let scaling = ref None in
    (* Warm start: seed (x, s, z) from a caller-supplied point — in a
       sweep, the neighbouring candidate's solution.  The homogeneous
       embedding tolerates any strictly interior seed with τ = κ = 1,
       so s and z are pushed a small margin inside the cone; a point
       with the wrong dimensions or non-finite entries falls back to
       the cold start silently (the sweep must never fail because its
       neighbour did). *)
    (match warm with
    | None -> ()
    | Some { wx; ws = wsv; wz } ->
      let finite v = Array.for_all Float.is_finite v in
      let reject reason =
        emit_obs obs (Obs.Trace.Warm_start { accepted = false; reason })
      in
      if Vec.dim wx <> n || Vec.dim wsv <> m || Vec.dim wz <> m then
        reject "dimension mismatch"
      else if not (finite wx && finite wsv && finite wz) then
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
        Vec.blit wx x;
        Vec.blit (interior wsv) s;
        Vec.blit (interior wz) z;
        emit_obs obs (Obs.Trace.Warm_start { accepted = true; reason = "ok" })
      end);
    (* Best iterate seen so far: near the numerical floor later
       iterations can degrade, so Stalled/Iteration_limit exits restore
       the snapshot with the smallest combined error. *)
    let best_score = ref infinity in
    let best_x = Vec.create n and best_s = Vec.create m in
    let best_z = Vec.create m and best_tau = ref 0.0 in
    let has_best = ref false in
    let last_improvement = ref 0 in
    (* Step length that produced the current iterate, reported with the
       iteration trace event (0 before the first step). *)
    let last_step = ref 0.0 in
    let scale_iterate () =
      let t = 1.0 /. !tau in
      for i = 0 to n - 1 do
        xt.(i) <- t *. x.(i)
      done;
      for i = 0 to m - 1 do
        st.(i) <- t *. s.(i);
        zt.(i) <- t *. z.(i)
      done
    in
    (* Relative primal and dual residuals of the τ-scaled iterate. *)
    let residuals () =
      ignore (Sparse_rows.mul_vec ~into:tmp_m gsp xt);
      for i = 0 to m - 1 do
        tmp_m.(i) <- tmp_m.(i) +. st.(i) -. h.(i)
      done;
      ignore (Sparse_rows.mul_tvec ~into:tmp_n gsp zt);
      for i = 0 to n - 1 do
        tmp_n.(i) <- tmp_n.(i) +. c.(i)
      done;
      (Vec.nrm2 tmp_m /. norm_h, Vec.nrm2 tmp_n /. norm_c)
    in
    let result status iterations =
      scale_iterate ();
      let pres, dres = residuals () in
      {
        status;
        x = Vec.copy xt;
        s = Vec.copy st;
        z = Vec.copy zt;
        primal_objective = Vec.dot c xt;
        dual_objective = -.Vec.dot h zt;
        gap = Vec.dot st zt;
        primal_residual = pres;
        dual_residual = dres;
        iterations;
        kkt_fallbacks = Kkt.fallbacks ws;
      }
    in
    let result_certificate status iterations =
      (* Report the raw homogeneous ray, normalised by the certificate
         magnitude rather than by τ. *)
      let denom =
        match status with
        | Primal_infeasible -> Float.max 1e-300 (-.Vec.dot h z)
        | _ -> Float.max 1e-300 (-.Vec.dot c x)
      in
      {
        status;
        x = Vec.scale (1.0 /. denom) x;
        s = Vec.scale (1.0 /. denom) s;
        z = Vec.scale (1.0 /. denom) z;
        primal_objective = nan;
        dual_objective = nan;
        gap = nan;
        primal_residual = nan;
        dual_residual = nan;
        iterations;
        kkt_fallbacks = Kkt.fallbacks ws;
      }
    in
    let rec iterate iter =
      (* Cooperative deadline: polled once per iteration, before the
         (expensive) Cholesky work.  Expiry returns the best τ-scaled
         iterate with status [Timed_out]; there is no signal and no
         asynchronous interruption, so the iterate is always
         consistent. *)
      if (match deadline with None -> false | Some expired -> expired ())
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
          s.(0) <- nan;
          z.(0) <- nan;
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
      (* Homogeneous residuals: G·x + s − h·τ and Gᵀ·z + c·τ. *)
      ignore (Sparse_rows.mul_vec ~into:res_z gsp x);
      for i = 0 to m - 1 do
        res_z.(i) <- res_z.(i) +. s.(i)
      done;
      Vec.axpy (-. !tau) h res_z;
      ignore (Sparse_rows.mul_tvec ~into:res_x gsp z);
      Vec.axpy !tau c res_x;
      let res_tau = -.Vec.dot c x -. Vec.dot h z -. !kappa in
      let gap_h = Vec.dot s z +. (!tau *. !kappa) in
      let mu = gap_h /. deg in
      (* Convergence checks on the τ-scaled iterate. *)
      scale_iterate ();
      let pres, dres = residuals () in
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
      (match obs with
      | None -> ()
      | Some o ->
        Obs.Ctx.emit o
          (Obs.Trace.Socp_iter
             { iter; pres; dres; gap; step = !last_step }));
      (* Relaxed acceptance used when progress dries up: the iterate is
         still returned as Optimal if it is accurate to ~1e3× the
         tolerance (mirrors the "close to optimal" exit of ECOS). *)
      let score_of pres dres gap relgap =
        Float.max (Float.max pres dres)
          (Float.min (Float.max 0.0 gap) (Float.max 0.0 relgap))
      in
      let score = score_of pres dres gap relgap in
      if score < 0.9 *. !best_score then last_improvement := iter;
      if score < !best_score then begin
        best_score := score;
        Vec.blit x best_x;
        Vec.blit s best_s;
        Vec.blit z best_z;
        best_tau := !tau;
        has_best := true
      end;
      let restore_best () =
        if !has_best then begin
          Vec.blit best_x x;
          Vec.blit best_s s;
          Vec.blit best_z z;
          tau := !best_tau
        end
      in
      let accept_at scale =
        let tol = params.tolerance *. scale in
        pres <= tol && dres <= tol && (gap <= tol || relgap <= tol)
      in
      let finish_or status =
        (* τ collapsing while κ stays bounded is the homogeneous
           embedding's infeasibility ray even when the algebraic
           certificate has not fully converged. *)
        if !kappa > 1e6 *. !tau then begin
          if Vec.dot h z < 0.0 then result_certificate Primal_infeasible iter
          else if Vec.dot c x < 0.0 then
            result_certificate Dual_infeasible iter
          else result status iter
        end
        else begin
          restore_best ();
          let scale = !best_score /. params.tolerance in
          if scale <= 1e3 then result Optimal iter else result status iter
        end
      in
      if accept_at 1.0 then result Optimal iter
      else if iter - !last_improvement > 8 then finish_or Stalled
      else begin
        (* Certificate checks: κ dominating τ signals infeasibility. *)
        let hz = Vec.dot h z and cx = Vec.dot c x in
        let cert_threshold = params.tolerance in
        let primal_cert =
          hz < 0.0
          && Vec.nrm2 (Sparse_rows.mul_tvec ~into:tmp_n gsp z) /. (-.hz)
             <= cert_threshold *. norm_c
        in
        let dual_cert =
          cx < 0.0
          &&
          (ignore (Sparse_rows.mul_vec ~into:tmp_m gsp x);
           for i = 0 to m - 1 do
             tmp_m.(i) <- tmp_m.(i) +. s.(i)
           done;
           Vec.nrm2 tmp_m /. (-.cx) <= cert_threshold *. norm_h)
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
          match Cone.nt_scaling ?into:!scaling cone ~s ~z with
          | exception Invalid_argument _ -> finish_or Stalled
          | w -> begin
            scaling := Some w;
            match Kkt.factor ws w ~force_dense with
            | exception Cholesky.Not_positive_definite -> finish_or Stalled
            | () ->
              let lam = w.Cone.lam in
              (* Constant second solve: (x₂, z₂) with rhs (−c, h). *)
              Kkt.solve ws w ~bx:neg_c ~bz:h ~dx:x2 ~dz:z2;
              let ctx2 = Vec.dot c x2 and htz2 = Vec.dot h z2 in
              let denom_tau = (!kappa /. !tau) -. ctx2 -. htz2 in
              for i = 0 to n - 1 do
                neg_res_x.(i) <- -.res_x.(i)
              done;
              (* One Newton direction (dx, ds, dz) for right-hand sides
                 (ds_rhs, dkappa) of the complementarity equations;
                 returns (Δτ, Δκ). *)
              let direction ~ds_rhs ~dkappa ~dx ~ds ~dz =
                ignore (Cone.div ~into:lam_div cone lam ds_rhs);
                (* Δs is eliminated as Δs = W·(λ\ds) − W²·Δz, so the
                   primal row becomes G·Δx − W²·Δz = −res_z − W·(λ\ds)
                   (+ h·Δτ handled via the second solve). *)
                ignore (Cone.apply ~into:wt w lam_div);
                for i = 0 to m - 1 do
                  bz.(i) <- -.res_z.(i)
                done;
                Vec.axpy (-1.0) wt bz;
                Kkt.solve ws w ~bx:neg_res_x ~bz ~dx ~dz;
                let dtau =
                  (-.res_tau +. (dkappa /. !tau) +. Vec.dot c dx
                 +. Vec.dot h dz)
                  /. denom_tau
                in
                Vec.axpy dtau x2 dx;
                Vec.axpy dtau z2 dz;
                (* W·(λ\ds) − W²·Δz *)
                ignore (Cone.apply ~into:wt w dz);
                for i = 0 to m - 1 do
                  wt.(i) <- lam_div.(i) -. wt.(i)
                done;
                ignore (Cone.apply ~into:ds w wt);
                let dkap = (dkappa -. (!kappa *. dtau)) /. !tau in
                (dtau, dkap)
              in
              let max_step_all ~ds ~dz (dtau, dkap) =
                let a = Cone.max_step cone s ds in
                let b = Cone.max_step cone z dz in
                let c1 = if dtau < 0.0 then -. !tau /. dtau else infinity in
                let c2 = if dkap < 0.0 then -. !kappa /. dkap else infinity in
                Float.min (Float.min a b) (Float.min c1 c2)
              in
              (* Predictor. *)
              ignore (Cone.prod ~into:lam_lam cone lam lam);
              for i = 0 to m - 1 do
                ds_in.(i) <- -.lam_lam.(i)
              done;
              let ((dtau_a, dkap_a) as aff) =
                direction ~ds_rhs:ds_in
                  ~dkappa:(-. (!tau *. !kappa))
                  ~dx:dx_a ~ds:ds_a ~dz:dz_a
              in
              let alpha_a =
                Float.min 1.0 (max_step_all ~ds:ds_a ~dz:dz_a aff)
              in
              let sigma = (1.0 -. alpha_a) ** 3.0 in
              (* Corrector with Mehrotra second-order term. *)
              ignore (Cone.apply_inv ~into:tmp_m w ds_a);
              ignore (Cone.apply ~into:wt w dz_a);
              ignore (Cone.prod ~into:corr cone tmp_m wt);
              (* σµe − λ∘λ − corr *)
              for i = 0 to m - 1 do
                ds_in.(i) <- -1.0 *. lam_lam.(i)
              done;
              Vec.axpy (-1.0) corr ds_in;
              Vec.axpy (sigma *. mu) e ds_in;
              let dkappa_rhs =
                (sigma *. mu) -. (!tau *. !kappa) -. (dtau_a *. dkap_a)
              in
              let ((dtau, dkap) as dir) =
                direction ~ds_rhs:ds_in ~dkappa:dkappa_rhs ~dx:dx_c ~ds:ds_c
                  ~dz:dz_c
              in
              let alpha = max_step_all ~ds:ds_c ~dz:dz_c dir in
              (* Fraction-to-boundary: stop 1% short of the cone edge. *)
              let step = Float.min 1.0 (0.99 *. alpha) in
              if step <= 1e-12 || Float.is_nan step then finish_or Stalled
              else begin
                last_step := step;
                Vec.axpy step dx_c x;
                Vec.axpy step ds_c s;
                Vec.axpy step dz_c z;
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

let solve ?(params = default_params) ?deadline ?obs ?warm ~c ~g ~h cone =
  let n = Vec.dim c and m = Vec.dim h in
  if Sparse_rows.rows g <> m || Sparse_rows.cols g <> n then
    invalid_arg "Socp.solve: G dimensions do not match c and h";
  if Cone.dim cone <> m then invalid_arg "Socp.solve: cone dimension";
  (match obs with
  | None -> ()
  | Some o -> Obs.Ctx.emit o (Obs.Trace.Solve_start { rows = m; cols = n }));
  let t0 = match obs with None -> 0.0 | Some _ -> Obs.Clock.now () in
  (* Only pay for scaling (and give up the bit-identical iteration
     path) when the data actually spans many orders of magnitude. *)
  let equilibrate = m > 0 && Presolve.badly_scaled g in
  let sol =
    if not equilibrate then
      solve_direct ~params ~deadline ~obs ~warm ~c ~g ~h cone
    else begin
      let sc, c', g', h' = Presolve.equilibrate ~c ~g ~h cone in
      let range_before = Presolve.dynamic_range g
      and range_after = Presolve.dynamic_range g' in
      Log.debug (fun f ->
          f "presolve: Ruiz equilibration, dynamic range %.2e -> %.2e"
            range_before range_after);
      (match obs with
      | None -> ()
      | Some o ->
        Obs.Ctx.emit o (Obs.Trace.Presolve { range_before; range_after }));
      (* A warm point lives in the original coordinates; map it forward
         through the equilibration (the inverse of
         [Presolve.unscale_point]) so it seeds the scaled solve. *)
      let warm =
        match warm with
        | Some { wx; ws; wz }
          when Vec.dim wx = n && Vec.dim ws = m && Vec.dim wz = m ->
          Some
            {
              wx = Array.mapi (fun i v -> v /. sc.Presolve.col.(i)) wx;
              ws = Array.mapi (fun i v -> v *. sc.Presolve.row.(i)) ws;
              wz =
                Array.mapi
                  (fun i v -> v *. sc.Presolve.obj /. sc.Presolve.row.(i))
                  wz;
            }
        | Some _ | None -> warm
      in
      let sol =
        solve_direct ~params ~deadline ~obs ~warm ~c:c' ~g:g' ~h:h' cone
      in
      unscale_solution sc ~c ~g ~h sol
    end
  in
  (match obs with
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
