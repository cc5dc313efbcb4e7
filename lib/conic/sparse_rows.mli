(** Sparse row-wise matrix view used by the interior-point KKT
    assembly.

    The constraint matrices of Algorithm 1 have a handful of nonzeros
    per row (a start-time difference, a budget or token coefficient),
    so forming the normal-equation matrix [GᵀW⁻²G] row by row costs
    [O(Σ nnz(row)²)] instead of the dense [O(n²·m)] — the difference
    between milliseconds and seconds beyond a few dozen tasks. *)

type t = private {
  m : int;  (** rows *)
  n : int;  (** columns *)
  ptr : int array;
      (** [m + 1] row pointers: row [i] is the entries
          [ptr.(i) .. ptr.(i+1) - 1] of [col] and [value] *)
  col : int array;  (** column of each entry, strictly increasing per row *)
  value : float array;  (** value of each entry, never zero *)
}
(** Compressed sparse rows (CSR).  [col] and [value] may be longer than
    [ptr.(m)]: {!empty} makes storage whose owner refills it row by row
    through the arrays, keeping the invariants above.  Every other
    array of a matrix must be left alone. *)

(** [empty ~rows ~cols ~capacity] has every row empty and room for
    [capacity] entries.
    @raise Invalid_argument on a negative size. *)
val empty : rows:int -> cols:int -> capacity:int -> t

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

(** [row t i] lists row [i]'s [(column, value)] entries in increasing
    column order (a fresh list; the matrix does not keep one). *)
val row : t -> int -> (int * float) list

(** [row_dot t i x] is the dot product of row [i] with [x], summed in
    column order from [0.]. *)
val row_dot : t -> int -> Linalg.Vec.t -> float

(** [scale t ~row ~col] is [diag(row)·t·diag(col)]: entry [(i, j)]
    becomes [v *. row.(i) *. col.(j)], and an entry that underflows to
    zero is dropped.
    @raise Invalid_argument if [row] or [col] has the wrong length. *)
val scale : t -> row:Linalg.Vec.t -> col:Linalg.Vec.t -> t

(** [mul_vec ?into t x] is [A·x]; [mul_tvec ?into t y] is [Aᵀ·y],
    accumulated row by row.  With [into] (of the result's length, not
    the argument vector) the result overwrites it and is returned;
    otherwise it is fresh. *)
val mul_vec : ?into:Linalg.Vec.t -> t -> Linalg.Vec.t -> Linalg.Vec.t

val mul_tvec : ?into:Linalg.Vec.t -> t -> Linalg.Vec.t -> Linalg.Vec.t

(** [dense_rows t ~among ~above] lists, in increasing order, the rows
    inside the [(offset, length)] row blocks [among] that have more
    than [above] stored entries — except that a row which is the only
    one touching some column is left out (rows are taken in order), so
    that every column touched by [t] stays touched once the listed
    rows are dropped. *)
val dense_rows : t -> among:(int * int) list -> above:int -> int array

(** [gram ?into t] is the dense symmetric Gram matrix [tᵀ·t],
    accumulated row by row in [O(Σ nnz(row)²)].  With [into] (an
    [n]×[n] matrix, [n = cols t]) the result overwrites it and is
    returned; otherwise it is fresh.
    @raise Invalid_argument if [into] has the wrong dimensions. *)
val gram : ?into:Linalg.Mat.t -> t -> Linalg.Mat.t
