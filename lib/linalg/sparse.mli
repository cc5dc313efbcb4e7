(** Sparse symmetric matrices in compressed-sparse-column form and a
    sparse Cholesky factorisation with a fill-reducing ordering.

    This is the sparse counterpart of {!Cholesky}: the interior-point
    KKT normal equations [GᵀW⁻²G] have a fixed sparsity pattern across
    iterations (the NT scaling mixes rows only {e within} a cone
    block), so the expensive combinatorial work — the minimum-degree
    ordering, the elimination tree, the pattern of the factor — is
    done once per solve ({!symbolic}) while each iteration only runs
    the cheap numeric refactorisation ({!factor} / {!refactor}).

    Only the upper triangle is stored.  All orderings and tie-breaks
    are deterministic (smallest index wins), so factorisations are
    bit-identical across runs and domains. *)

type sym
(** A symmetric matrix: upper-triangle CSC with sorted, duplicate-free
    columns (canonicalised by {!create}). *)

exception Not_positive_definite

(** [create ~n triplets] builds an [n×n] symmetric matrix from
    [(i, j, v)] triplets.  Entries are mirrored into the upper
    triangle, sorted, and duplicates are summed.  Structural zeros are
    kept (the pattern is reused across refactorisations).
    @raise Invalid_argument on an index out of range. *)
val create : n:int -> (int * int * float) list -> sym

(** [of_pattern ~n ~colptr ~rowind] is the [n×n] symmetric matrix of
    zeros whose upper-triangle pattern is given in CSC form: column [j]
    holds the rows [rowind.(colptr.(j)) .. rowind.(colptr.(j+1) - 1)],
    strictly increasing and at most [j] — the form {!create} produces.
    The arrays are taken, not copied.
    @raise Invalid_argument if the pattern is not in that form. *)
val of_pattern : n:int -> colptr:int array -> rowind:int array -> sym

val dim : sym -> int

(** [nnz a] is the number of stored upper-triangle entries. *)
val nnz : sym -> int

(** [colptr a], [rowind a] and [values a] are the CSC storage itself,
    not copies: [values a] may be refilled in place (the pattern is
    fixed), the other two must not be written. *)
val colptr : sym -> int array
val rowind : sym -> int array
val values : sym -> float array

(** [slot a i j] is the index in [values a] of the stored entry [(i, j)]
    (either triangle may be named), or [-1] outside the pattern. *)
val slot : sym -> int -> int -> int

(** [clear a] zeroes every stored value, keeping the pattern. *)
val clear : sym -> unit

(** [add a i j v] accumulates [v] into the stored entry [(i, j)]
    (either triangle may be named; the upper one is touched).
    @raise Invalid_argument if [(i, j)] is not in the pattern. *)
val add : sym -> int -> int -> float -> unit

(** [get a i j] is the stored value, or [0.] outside the pattern. *)
val get : sym -> int -> int -> float

(** [mul_vec ?into a x] is the full symmetric product [A·x].  With
    [into] (of [x]'s length, not [x] itself) the product overwrites it
    and is returned; otherwise it is fresh. *)
val mul_vec : ?into:Vec.t -> sym -> Vec.t -> Vec.t

(** [to_dense a] expands to a dense symmetric matrix (tests only). *)
val to_dense : sym -> Mat.t

(** [min_degree a] is a fill-reducing elimination order: [perm.(k)] is
    the original index eliminated k-th.  Greedy minimum degree with
    clique merging; ties broken by smallest index, so the order is a
    pure function of the pattern.  The next vertex comes off a
    (degree, index) heap, so selection costs O(nnz·log n) in all. *)
val min_degree : sym -> int array

type symbolic
(** The once-per-pattern analysis: permutation, elimination tree and
    the column pointers of the factor [L].  Valid for any matrix with
    the same pattern as the one analysed. *)

(** [symbolic ?order a] runs the symbolic phase on [a]'s pattern using
    [order] (default {!min_degree}).
    @raise Invalid_argument if [order] is not a permutation of
    [0..n-1]. *)
val symbolic : ?order:int array -> sym -> symbolic

(** [factor_nnz s] is the number of nonzeros the factor [L] will
    have (including the diagonal). *)
val factor_nnz : symbolic -> int

type factor
(** A numeric factor together with the storage it lives in: [L]'s
    values and row indices and the scratch of the numeric phase and of
    the solves.  One storage serves any number of refactorisations of
    matrices with the analysed pattern, so an iterative method factors
    and solves in fixed memory.  A storage is not safe to use from two
    domains at once. *)

(** [factor_storage s] is fresh storage for factors of the analysis
    [s]; it holds no valid factor until {!factor} has succeeded on it. *)
val factor_storage : symbolic -> factor

(** [refactor s a ~shift] numerically factors [P·(A + shift·I)·Pᵀ =
    L·Lᵀ] into fresh storage, reusing the symbolic analysis [s].  [a]
    must have the same pattern [s] was computed from.  Returns [None]
    when a pivot is non-positive (the matrix plus shift is not positive
    definite). *)
val refactor : symbolic -> sym -> shift:float -> factor option

(** [factor ?max_shift ?into s a] is {!refactor} wrapped in the same
    progressive diagonal shift policy as {!Cholesky.factor}: shift [0.],
    then [1e-14·‖a‖] growing ×100 up to [max_shift·‖a‖]
    (default [1e-4]).  Every attempt writes the same storage — [into]
    (storage of [s]) if given, else one fresh storage — and allocates
    no array.
    @raise Not_positive_definite if no shift in range succeeds.
    @raise Invalid_argument if [into] belongs to another analysis. *)
val factor : ?max_shift:float -> ?into:factor -> symbolic -> sym -> factor

(** [shift f] is the diagonal regularisation that was applied. *)
val shift : factor -> float

(** [solve ?into f b] solves [(A + shift·I)·x = b] through the permuted
    triangular factors.  With [into] (of [b]'s length; may be [b]
    itself) the solution overwrites it and is returned, and no array is
    allocated; otherwise it is fresh.  The solve works in [f]'s scratch,
    so it must not run concurrently with another solve on [f]. *)
val solve : ?into:Vec.t -> factor -> Vec.t -> Vec.t
