(** The per-solve KKT workspace of {!Socp}: everything one
    interior-point solve needs to form and solve its normal equations
    [GᵀW⁻²G·dx = r], allocated once and refilled every iteration.

    {!create} analyses [G] once: the capacity of every row of [W⁻¹G]
    (an orthant row keeps its own columns; the NT scaling mixes the rows
    of a second-order block, so they get the block's column union), the
    structural pattern of [GᵀW⁻²G] without the dense rows, the pattern
    slot of every pair of capacity columns, and the symbolic Cholesky
    analysis.  Each iteration then writes [W⁻¹G] into the preallocated
    rows, the Gram values into their slots, and the numeric factor into
    its storage; the dense orthant rows come back by a
    Sherman–Morrison–Woodbury update, and an iteration whose sparse
    factorisation fails falls back to a dense Cholesky of the full Gram
    matrix of the same scaled rows.

    Every floating-point operation happens in the order of a row-by-row
    list assembly, so results are bit-identical to it.  A workspace
    belongs to one solve and must not be shared between domains. *)

type t

(** Orthant rows of [G] with more nonzeros than this are the dense rows
    that stay out of the Cholesky pattern. *)
val dense_row_threshold : int

(** [create ?obs ~g cone] runs the once-per-solve analysis of [g] (rows
    laid out by [cone]) and emits its symbolic [Kkt_factor] event. *)
val create : ?obs:Obs.Ctx.t -> g:Sparse_rows.t -> Cone.t -> t

(** [scale_rows ws w] writes [W⁻¹·G] into {!scaled}: each row holds
    exactly the nonzero entries of its column-ordered accumulation. *)
val scale_rows : t -> Cone.scaling -> unit

(** [fill_gram ws] writes [Σ rᵀr] over the scaled rows outside the
    dense ones into the values of {!gram}. *)
val fill_gram : t -> unit

(** [factor ws w ~force_dense] prepares the solves of one iteration at
    scaling [w]: {!scale_rows}, then — unless [force_dense] — {!fill_gram},
    the numeric sparse factorisation and the Woodbury capacitance
    factor; if either fails, or [force_dense] holds, the dense fallback
    (counted in {!fallbacks}).
    @raise Linalg.Cholesky.Not_positive_definite if the dense fallback
    fails too. *)
val factor : t -> Cone.scaling -> force_dense:bool -> unit

(** [solve ws w ~bx ~bz ~dx ~dz] solves the scaled KKT system
    {v Gᵀ·dz = bx,   G·dx − W²·dz = bz v}
    through the factorisation of the last {!factor} call at the same
    [w], via [dz = W⁻²·(G·dx − bz)] and two rounds of iterative
    refinement, writing [dx] and [dz].  The outputs must be distinct
    from each other and from the inputs. *)
val solve :
  t ->
  Cone.scaling ->
  bx:Linalg.Vec.t ->
  bz:Linalg.Vec.t ->
  dx:Linalg.Vec.t ->
  dz:Linalg.Vec.t ->
  unit

(** [scaled ws] is the storage of [W⁻¹·G] (valid after {!scale_rows}). *)
val scaled : t -> Sparse_rows.t

(** [gram ws] is the Gram pattern without the dense rows, with the
    values of the last {!fill_gram}. *)
val gram : t -> Linalg.Sparse.sym

(** [dense ws] lists the dense rows kept out of {!gram}. *)
val dense : t -> int array

(** [fallbacks ws] counts the iterations that took the dense fallback. *)
val fallbacks : t -> int
