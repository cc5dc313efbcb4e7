(** Arbitrary-precision signed integers, dependency-free.

    Magnitudes are little-endian arrays of base-2^30 limbs, so limb
    products fit comfortably in OCaml's 63-bit native [int].  Sized for
    the exact Bellman–Ford certifier, whose numbers are a few limbs
    long: schoolbook multiplication, Knuth's algorithm D for division
    (short division when the divisor is one limb, native division when
    both operands fit 60 bits), and Euclid's gcd on that division,
    which finishes in native arithmetic once both operands fit 60
    bits. *)

type t

val zero : t
val one : t

val of_int : int -> t
val of_int64 : int64 -> t

(** [to_int t] is [Some n] when [t] fits a native [int]. *)
val to_int : t -> int option

val to_float : t -> float

(** Number of bits in the magnitude; 0 for zero. *)
val bit_length : t -> int

(** [sign t] is [-1], [0] or [1]. *)
val sign : t -> int

val is_zero : t -> bool
val equal : t -> t -> bool
val compare : t -> t -> int

val neg : t -> t
val abs : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t

(** [shift_left t k] is [t·2^k].  [k] must be non-negative. *)
val shift_left : t -> int -> t

(** [divmod a b] is [(q, r)] with [a = q·b + r], truncated towards
    zero and [|r| < |b|], matching native [(/)] and [(mod)].
    Raises [Division_by_zero] when [b] is zero. *)
val divmod : t -> t -> t * t

val div : t -> t -> t
val rem : t -> t -> t

(** [gcd a b] is the non-negative greatest common divisor.
    [gcd zero zero] is [zero]. *)
val gcd : t -> t -> t

(** [lcm a b] is the non-negative least common multiple. *)
val lcm : t -> t -> t

val to_string : t -> string
val of_string : string -> t
val pp : Format.formatter -> t -> unit
