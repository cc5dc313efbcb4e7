(** Symmetric-cone structure for the interior-point solver.

    A cone [K] is a Cartesian product of non-negative orthants and
    second-order (Lorentz) cones
    [SOC(q) = {(t, u) ∈ ℝ×ℝ^(q−1) | ‖u‖₂ ≤ t}].
    All vectors handled here live in the product space and operations
    are applied block by block.  The module provides the Jordan-algebra
    operations and the Nesterov–Todd scaling used by {!Socp}. *)

type block =
  | Nonneg of int  (** non-negative orthant of the given dimension *)
  | Soc of int     (** second-order cone of the given dimension, ≥ 1 *)

type t

(** [make blocks] validates the block list (positive dimensions).
    @raise Invalid_argument on a non-positive dimension. *)
val make : block list -> t

(** [blocks k] returns the block structure. *)
val blocks : t -> block list

(** [dim k] is the total dimension of the product space. *)
val dim : t -> int

(** [degree k] is the barrier degree: orthant dimensions count 1 each,
    every SOC block counts 1. *)
val degree : t -> int

(** [identity k] is the identity element [e]: all-ones on orthant
    blocks, [(1, 0, …)] on SOC blocks. *)
val identity : t -> Linalg.Vec.t

(** [min_eig k u] is the smallest spectral value of [u]:
    the smallest entry on orthant blocks, [t − ‖ū‖] on SOC blocks.
    [u ∈ K] iff [min_eig k u ≥ 0]. *)
val min_eig : t -> Linalg.Vec.t -> float

(** [mem ?eps k u] tests membership of [u] in [K] within tolerance. *)
val mem : ?eps:float -> t -> Linalg.Vec.t -> bool

(** [prod ?into k u v] is the Jordan product [u ∘ v]:
    component-wise on orthants, [(uᵀv, u₀v̄ + v₀ū)] on SOC blocks.
    With [into] (neither [u] nor [v]) the product overwrites it and is
    returned; otherwise it is fresh.  The same holds for {!div}. *)
val prod :
  ?into:Linalg.Vec.t -> t -> Linalg.Vec.t -> Linalg.Vec.t -> Linalg.Vec.t

(** [div ?into k lam d] solves [lam ∘ u = d] for [u] block by block.
    [lam] must be strictly interior. *)
val div :
  ?into:Linalg.Vec.t -> t -> Linalg.Vec.t -> Linalg.Vec.t -> Linalg.Vec.t

(** [max_step k u du] is [sup {α ≥ 0 | u + α·du ∈ K}] for [u ∈ K];
    [infinity] when the ray stays inside. *)
val max_step : t -> Linalg.Vec.t -> Linalg.Vec.t -> float

(** Nesterov–Todd scaling point for a strictly feasible primal–dual pair
    [(s, z)].  The scaling [W] is the unique symmetric cone automorphism
    with [W·z = W⁻¹·s = λ] (the scaled variable).  It is stored flat:
    on an orthant block [W = diag(w)]; on an SOC block
    [W·u = η·(2·v·(vᵀu) − J·u)] with [J = diag(1, −I)] and [vᵀJv = 1],
    [v] stored in [w] at the block's entries and [η] in [eta] at the
    block's index.  The arrays must not be written. *)
type scaling = private {
  cone : t;
  w : float array;
      (** [dim cone] entries: [wᵢ] on orthants, [v] on SOC blocks *)
  eta : float array;
      (** one entry per block: [η] of an SOC block, unused otherwise *)
  lam : Linalg.Vec.t;  (** [λ]; {!lambda} returns a copy *)
}

(** [nt_scaling ?into k ~s ~z] computes the scaling.  With [into] (an
    earlier scaling of [k]) its storage is overwritten and returned, so
    an interior-point solve rescales in fixed memory.
    @raise Invalid_argument if [s] or [z] is not strictly interior, or
    [into] is a scaling of another cone. *)
val nt_scaling :
  ?into:scaling -> t -> s:Linalg.Vec.t -> z:Linalg.Vec.t -> scaling

(** [apply ?into w u] computes [W·u].  With [into] (which may be [u]
    itself) the result overwrites it and is returned; otherwise it is
    fresh.  The same holds for {!apply_inv}. *)
val apply : ?into:Linalg.Vec.t -> scaling -> Linalg.Vec.t -> Linalg.Vec.t

(** [apply_inv ?into w u] computes [W⁻¹·u]; [W] is symmetric so this is
    also [W⁻ᵀ·u]. *)
val apply_inv : ?into:Linalg.Vec.t -> scaling -> Linalg.Vec.t -> Linalg.Vec.t

(** [lambda w] is the scaled variable [λ = W·z = W⁻¹·s]. *)
val lambda : scaling -> Linalg.Vec.t
