(** Sparse row-wise matrix view used by the interior-point KKT
    assembly.

    The constraint matrices of Algorithm 1 have a handful of nonzeros
    per row (a start-time difference, a budget or token coefficient),
    so forming the normal-equation matrix [GᵀW⁻²G] row by row costs
    [O(Σ nnz(row)²)] instead of the dense [O(n²·m)] — the difference
    between milliseconds and seconds beyond a few dozen tasks. *)

type t

(** [of_mat a] extracts the sparse rows of a dense matrix (entries
    equal to zero are not stored). *)
val of_mat : Linalg.Mat.t -> t

(** [of_rows ~cols rows] builds a matrix from per-row
    [(column, value)] lists.  Rows are canonicalised on construction:
    entries are sorted by column, duplicate columns are summed from
    left to right in their input order, and explicit zeros are dropped
    — unsorted or duplicated input is never stored as-is.
    @raise Invalid_argument on a column index out of range. *)
val of_rows : cols:int -> (int * float) list array -> t

(** [rows t] and [cols t] are the logical dimensions. *)
val rows : t -> int

val cols : t -> int

(** [nnz t] is the total number of stored entries. *)
val nnz : t -> int

(** [row t i] is the [(column, value)] list of row [i] in increasing
    column order. *)
val row : t -> int -> (int * float) list

(** [row_dot r x] is the dot product of the sparse row [r] with [x],
    summed in column order from [0.]. *)
val row_dot : (int * float) list -> Linalg.Vec.t -> float

(** [scale t ~row ~col] is [diag(row)·t·diag(col)]: entry [(i, j)]
    becomes [v *. row.(i) *. col.(j)], and an entry that underflows to
    zero is dropped.
    @raise Invalid_argument if [row] or [col] has the wrong length. *)
val scale : t -> row:Linalg.Vec.t -> col:Linalg.Vec.t -> t

(** [mul_vec t x] is [A·x]. *)
val mul_vec : t -> Linalg.Vec.t -> Linalg.Vec.t

(** [mul_tvec t y] is [Aᵀ·y]. *)
val mul_tvec : t -> Linalg.Vec.t -> Linalg.Vec.t

(** [scale_rows t ~blocks ~scale_block] applies a per-block row
    transformation: for each contiguous row block [(lo, len)] in
    [blocks] (matching a cone structure) the callback receives the
    block's sparse rows and returns the scaled sparse rows, which must
    be in canonical (sorted, duplicate-free) form — as
    {!Cone.apply_inv_rows} produces.  Used to apply the NT scaling
    [W⁻¹] without densifying. *)
val scale_rows :
  t ->
  blocks:(int * int) list ->
  scale_block:(int -> (int * float) list array -> (int * float) list array) ->
  t

(** [dense_rows t ~among ~above] lists, in increasing order, the rows
    inside the [(offset, length)] row blocks [among] that have more
    than [above] stored entries — except that a row which is the only
    one touching some column is left out (rows are taken in order), so
    that every column touched by [t] stays touched once the listed
    rows are dropped. *)
val dense_rows : t -> among:(int * int) list -> above:int -> int array

(** [drop_rows t idx] is [t] with the rows listed in [idx] emptied;
    row numbering and dimensions are unchanged. *)
val drop_rows : t -> int array -> t

(** [gram ?into t] is the dense symmetric Gram matrix [tᵀ·t],
    accumulated row by row in [O(Σ nnz(row)²)].  With [into] (an
    [n]×[n] matrix, [n = cols t]) the result overwrites it and is
    returned; otherwise it is fresh.
    @raise Invalid_argument if [into] has the wrong dimensions. *)
val gram : ?into:Linalg.Mat.t -> t -> Linalg.Mat.t

(** [scaled_gram t ~blocks ~scale_block] is
    [(gram (scale_rows t …), scale_rows t …)]. *)
val scaled_gram :
  t ->
  blocks:(int * int) list ->
  scale_block:(int -> (int * float) list array -> (int * float) list array) ->
  Linalg.Mat.t * t

(** [gram_pattern t ~soc] is the structural pattern of the scaled Gram
    matrix as a sparse symmetric matrix of zeros: [soc] lists the
    [(offset, length)] row blocks whose rows the NT scaling mixes (the
    second-order cones), so their structural rows are the union of the
    block; all [cols t] diagonal entries are included.  The result is
    the fixed pattern that {!fill_gram} refills each iteration. *)
val gram_pattern : t -> soc:(int * int) list -> Linalg.Sparse.sym

(** [fill_gram t ~into] clears [into] and accumulates [tᵀ·t] into its
    structural pattern.
    @raise Invalid_argument if [t] has an entry pair outside the
    pattern (i.e. [into] was not built by {!gram_pattern} on a
    superset pattern). *)
val fill_gram : t -> into:Linalg.Sparse.sym -> unit
