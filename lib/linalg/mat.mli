(** Dense row-major matrices of floats.

    Dimensions are validated on every operation; mismatches raise
    [Invalid_argument].  The interior-point solver only needs matrices
    with a few thousand entries, so all storage is dense. *)

type t

(** [create m n] is the [m]×[n] zero matrix. *)
val create : int -> int -> t

(** [init m n f] is the [m]×[n] matrix with entry [(i, j)] equal to
    [f i j]. *)
val init : int -> int -> (int -> int -> float) -> t

(** [identity n] is the [n]×[n] identity. *)
val identity : int -> t

(** [of_rows rows] builds a matrix from row vectors (all of equal
    dimension). *)
val of_rows : float array list -> t

(** [of_arrays a] builds a matrix from an array of rows. *)
val of_arrays : float array array -> t

(** [of_data m n data] is the [m]×[n] matrix whose row-major storage
    is [data] itself (not a copy): entry [(i, j)] is
    [data.(i * n + j)].
    @raise Invalid_argument unless [Array.length data = m * n]. *)
val of_data : int -> int -> float array -> t

(** [rows a] is the number of rows. *)
val rows : t -> int

(** [cols a] is the number of columns. *)
val cols : t -> int

(** [data a] is the row-major storage of [a] itself (not a copy), of
    length [rows a * cols a]: entry [(i, j)] is [data.(i * cols a + j)].
    The numeric kernels index it directly, because every {!get} of a
    float across a module boundary returns a boxed value. *)
val data : t -> float array

(** [get a i j] is entry [(i, j)]. *)
val get : t -> int -> int -> float

(** [set a i j x] writes entry [(i, j)]. *)
val set : t -> int -> int -> float -> unit

(** [update a i j f] replaces entry [(i, j)] by [f] of itself. *)
val update : t -> int -> int -> (float -> float) -> unit

(** [copy a] is a deep copy. *)
val copy : t -> t

(** [col a j] is a fresh copy of column [j]. *)
val col : t -> int -> Vec.t

(** [transpose a] is a fresh transpose. *)
val transpose : t -> t

(** [mul_vec a x] is the matrix–vector product [A·x]. *)
val mul_vec : t -> Vec.t -> Vec.t

(** [mul_tvec a x] is the product with the transpose, [Aᵀ·x]. *)
val mul_tvec : t -> Vec.t -> Vec.t

(** [mul a b] is the matrix product [A·B]. *)
val mul : t -> t -> t

(** [add a b] is the fresh sum. *)
val add : t -> t -> t

(** [gram a] is [Aᵀ·A], computed symmetrically. *)
val gram : t -> t

(** [gram_weighted a w] is [Aᵀ·diag(w)·A] for a weight vector [w] of
    dimension [rows a]. *)
val gram_weighted : t -> Vec.t -> t

(** [frobenius a] is the Frobenius norm. *)
val frobenius : t -> float

(** [equal ~eps a b] is component-wise equality within [eps]. *)
val equal : eps:float -> t -> t -> bool
