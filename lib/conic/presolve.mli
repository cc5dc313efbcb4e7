(** Ruiz equilibration of cone-program data.

    Interior-point iterations degrade when the rows and columns of [G]
    span many orders of magnitude: the scaled Gram matrix becomes
    ill-conditioned long before the iterate is accurate, and the solver
    stalls.  This module rescales the problem

    {v minimize ĉᵀx̂  s.t.  Ĝ·x̂ + ŝ = ĥ,  ŝ ∈ K
       with  Ĝ = Dr·G·Dc,  ĥ = Dr·h,  ĉ = σ·Dc·c v}

    by the classic Ruiz iteration (repeatedly dividing every row and
    column by the square root of its infinity norm) and maps solutions
    back exactly: [x = Dc·x̂], [s = Dr⁻¹·ŝ], [z = Dr·ẑ/σ].

    Cone structure is preserved: the rows of one second-order cone
    block share a single scale factor (independent per-row scales would
    destroy cone membership of the slack), while orthant rows scale
    independently.  [Dr], [Dc] and [σ] are strictly positive, so the
    scaled problem is feasible/unbounded exactly when the original
    is. *)

type scaling = {
  row : Linalg.Vec.t;  (** the diagonal of [Dr] *)
  col : Linalg.Vec.t;  (** the diagonal of [Dc] *)
  obj : float;         (** the objective scale [σ > 0] *)
}

(** [dynamic_range g] is the ratio between the largest and smallest
    nonzero magnitude in [g] (1 for an all-zero or empty matrix).
    This and {!equilibrate} visit the stored entries of [g] only. *)
val dynamic_range : Sparse_rows.t -> float

(** [badly_scaled g] decides whether equilibration is worth the extra
    work: true when {!dynamic_range} exceeds [1e6].  Used by the
    solver's automatic presolve mode, so well-scaled instances keep
    their bit-identical iteration path. *)
val badly_scaled : Sparse_rows.t -> bool

(** [equilibrate ?iterations ~c ~g ~h cone] runs the Ruiz iteration
    (default 10 rounds) and returns the scaling together with the
    scaled data [(ĉ, Ĝ, ĥ)].  The inputs are not modified. *)
val equilibrate :
  ?iterations:int ->
  c:Linalg.Vec.t ->
  g:Sparse_rows.t ->
  h:Linalg.Vec.t ->
  Cone.t ->
  scaling * Linalg.Vec.t * Sparse_rows.t * Linalg.Vec.t

(** [unscale_point t ~x ~s ~z] maps a scaled primal–dual point back to
    the original problem: [(Dc·x, Dr⁻¹·s, Dr·z/σ)].  Residuals and
    objectives must be recomputed on the original data afterwards. *)
val unscale_point :
  scaling ->
  x:Linalg.Vec.t ->
  s:Linalg.Vec.t ->
  z:Linalg.Vec.t ->
  Linalg.Vec.t * Linalg.Vec.t * Linalg.Vec.t
