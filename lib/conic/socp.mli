(** Primal–dual interior-point solver for cone programs

    {v minimize    cᵀx
       subject to  G·x + s = h,   s ∈ K v}

    where [K] is a product of non-negative orthants and second-order
    cones ({!Cone}).  The dual is
    [maximize −hᵀz  s.t.  Gᵀz + c = 0, z ∈ K].

    The implementation is an infeasible-start Mehrotra
    predictor–corrector method with Nesterov–Todd scaling, solving the
    KKT systems through the normal equations
    [Gᵀ·W⁻²·G·Δx = r] with a shifted sparse Cholesky factorisation —
    the polynomial-complexity method the paper relies on (via CPLEX) to
    solve Algorithm 1.  [G] is given as compressed sparse rows
    ({!Sparse_rows}).  Each solve allocates one KKT workspace ({!Kkt})
    and the vectors of its iteration once: one symbolic analysis fixes
    the factor's pattern, each iteration refactorises it numerically in
    place, and orthant rows with more than {!Kkt.dense_row_threshold}
    nonzeros stay out of the pattern and are added back by a
    Sherman–Morrison–Woodbury update.  An iteration whose sparse
    factorisation fails falls back to a dense Cholesky of the full Gram
    matrix (counted in {!solution.kkt_fallbacks}).  See
    docs/solver.md. *)

type status =
  | Optimal
  | Primal_infeasible
      (** a certificate [z ⪰ 0, Gᵀz ≈ 0, hᵀz < 0] was found *)
  | Dual_infeasible
      (** a certificate [Gx + s ≈ 0, s ⪰ 0, cᵀx < 0] was found
          (the primal is unbounded below) *)
  | Iteration_limit
  | Stalled  (** step sizes collapsed before reaching the tolerance *)
  | Timed_out
      (** the [?deadline] hook of {!solve} reported expiry; the
          solution carries the best iterate reached so far *)

type solution = {
  status : status;
  x : Linalg.Vec.t;
  s : Linalg.Vec.t;
  z : Linalg.Vec.t;
  primal_objective : float;
  dual_objective : float;
  gap : float;          (** complementarity gap [sᵀz] *)
  primal_residual : float;  (** relative norm of [Gx + s − h] *)
  dual_residual : float;    (** relative norm of [Gᵀz + c] *)
  iterations : int;
  kkt_fallbacks : int;
      (** iterations where the sparse KKT factorisation failed (or a
          [Dense_kkt] fault forced it) and the dense fallback was used
          instead *)
}

(** Deterministic fault injected by tests through {!params.inject}:
    [Stall] makes the iteration return [Stalled] outright at the chosen
    iteration; [Nan] poisons the iterate with NaNs so the solver's own
    numerical guards trip on the following pass; [Slow] sleeps half a
    second at the chosen iteration and then proceeds normally — a
    wall-clock-pathological (but otherwise healthy) solve for deadline
    tests.  [Dense_kkt] forces the chosen iteration's sparse KKT
    factorisation onto the dense fallback path — the deterministic way
    to exercise the fallback accounting; injected at every iteration it
    gives the dense reference solve the tests compare against.  See
    docs/robustness.md. *)
type fault = Stall | Nan | Slow | Dense_kkt

(** A warm-start point in the {e original} problem coordinates —
    typically the [x], [s], [z] of a neighbouring instance's solution.
    The solver pushes [ws]/[wz] strictly inside the cone and restarts
    the homogeneous embedding at [τ = κ = 1], so any point is safe to
    offer: a useless one merely converges like a cold start, and a
    malformed one (wrong dimensions, non-finite entries) is rejected
    silently. *)
type warm = { wx : Linalg.Vec.t; ws : Linalg.Vec.t; wz : Linalg.Vec.t }

(** How the solver iterates.  The per-call hooks — a deadline, a trace
    context and a warm point — are arguments of {!solve}, not fields:
    a caller that sets none of them keeps a hook-free iteration loop. *)
type params = {
  max_iter : int;      (** default 100 *)
  tolerance : float;
      (** default 1e-7: the bound on the primal and dual residuals and
          on the absolute or relative gap at which an iterate is
          accepted as optimal, and on the residual of an infeasibility
          certificate.  The relaxed rung of {!Budgetbuf.Mapping}'s
          recovery ladder runs at 10× the caller's value. *)
  inject : (int -> fault option) option;
      (** fault-injection hook (tests only), called with the iteration
          number before each pass; [None] (the default) injects
          nothing *)
}

val default_params : params

(** [solve ?params ?deadline ?obs ?warm ~c ~g ~h cone] solves the cone
    program.  When {!Presolve.badly_scaled} holds for [g], the program
    is first Ruiz equilibrated ({!Presolve.equilibrate}, a [Presolve]
    trace event) and the answer mapped back, with objectives and
    residuals recomputed on the original data; a well-scaled program
    keeps a bit-identical iteration path.  Every step goes
    [min(1, 0.99·α)] of the way, where [α] is the longest step that
    stays inside the cone.

    - [deadline] is polled at the head of every iteration (cheap next
      to the Cholesky work); once it returns true the solve stops with
      {!status.Timed_out} and the best iterate so far.
    - [obs] receives [Solve_start]/[Solve_end], one [Socp_iter] event
      per interior-point iteration (residuals, gap, step length) and a
      [Presolve] event when equilibration runs.  See
      docs/observability.md.
    - [warm] is the warm-start point (absent: cold start).

    Absent hooks cost nothing: the loop tests each one against [None]
    and observation never changes the iterates.
    @raise Invalid_argument on dimension mismatch between [c], [g], [h]
    and [cone]. *)
val solve :
  ?params:params ->
  ?deadline:(unit -> bool) ->
  ?obs:Obs.Ctx.t ->
  ?warm:warm ->
  c:Linalg.Vec.t ->
  g:Sparse_rows.t ->
  h:Linalg.Vec.t ->
  Cone.t ->
  solution

(** [kkt_solve ~g cone ~s ~z ~bx ~bz] solves one scaled KKT system
    {v Gᵀ·dz = bx,   G·dx − W²·dz = bz v}
    at the NT scaling [W] of the strictly interior pair [(s, z)], the
    way one interior-point iteration does, and returns
    [(dx, dz, fallbacks)] — [fallbacks] is [1] when the sparse
    factorisation failed and the dense fallback answered.  Exposed for
    the differential tests of the sparse factor.
    @raise Invalid_argument if [(s, z)] is not strictly interior.
    @raise Linalg.Cholesky.Not_positive_definite if the dense fallback
    fails too. *)
val kkt_solve :
  g:Sparse_rows.t ->
  Cone.t ->
  s:Linalg.Vec.t ->
  z:Linalg.Vec.t ->
  bx:Linalg.Vec.t ->
  bz:Linalg.Vec.t ->
  Linalg.Vec.t * Linalg.Vec.t * int

(** [pp_status ppf st] prints a status for logs and error messages. *)
val pp_status : Format.formatter -> status -> unit
