(** Cholesky factorisation of symmetric matrices, and the triangular
    solves built on it.

    This is the only dense factorisation the interior-point solver needs:
    the KKT normal equations [Gᵀ·W⁻¹·W⁻ᵀ·G] are symmetric positive
    definite away from the boundary of the cone, and become nearly
    singular close to the optimum, which [factor] handles with a
    progressive diagonal shift. *)

type factor = {
  l : Mat.t;  (** lower-triangular Cholesky factor *)
  shift : float;
      (** diagonal regularisation that was added to achieve positive
          definiteness; [0.] when the matrix was PD as given *)
}

exception Not_positive_definite

(** [factor ?max_shift ?into a] computes a lower-triangular [l] with
    [l·lᵀ = a + shift·I].  The shift starts at [0.] and is increased
    geometrically from [1e-14·‖a‖] up to [max_shift·‖a‖]
    (default [1e-4]) until the factorisation succeeds.  With [into]
    (a matrix of [a]'s dimensions whose strict upper triangle is zero,
    such as an earlier factor's [l]) the factor is written into its
    storage and [l] is [into]; otherwise [l] is fresh.
    @raise Not_positive_definite if no shift in range succeeds.
    @raise Invalid_argument if [a] is not square or [into] has the
    wrong dimensions. *)
val factor : ?max_shift:float -> ?into:Mat.t -> Mat.t -> factor

(** [solve f b] solves [(l·lᵀ)·x = b] by forward and back substitution. *)
val solve : factor -> Vec.t -> Vec.t

(** [solve_lower l b] solves the lower-triangular system [l·x = b]. *)
val solve_lower : Mat.t -> Vec.t -> Vec.t

(** [solve_upper_t l b] solves [lᵀ·x = b] for lower-triangular [l]. *)
val solve_upper_t : Mat.t -> Vec.t -> Vec.t
