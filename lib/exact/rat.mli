(** Normalized arbitrary-precision rationals over {!Bigint}.

    Invariant: the denominator is positive and coprime with the
    numerator; zero is represented as 0/1.  Equality is therefore
    structural. *)

type t = private { num : Bigint.t; den : Bigint.t }

val zero : t
val one : t

(** [make num den] normalizes the fraction.  Raises [Division_by_zero]
    when [den] is zero. *)
val make : Bigint.t -> Bigint.t -> t

val of_bigint : Bigint.t -> t
val of_int : int -> t
val of_ints : int -> int -> t

(** [of_float f] is the exact value of the double [f] — every finite
    float is a dyadic rational [m·2^e], recovered losslessly from the
    mantissa/exponent decomposition.  Raises [Invalid_argument] on
    NaN and infinities. *)
val of_float : float -> t

val to_float : t -> float

val neg : t -> t
val abs : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t

(** Raises [Division_by_zero] on a zero divisor. *)
val div : t -> t -> t

val compare : t -> t -> int
val equal : t -> t -> bool
val sign : t -> int
val min : t -> t -> t
val max : t -> t -> t

(** ["n"] when the denominator is 1, ["n/d"] otherwise. *)
val to_string : t -> string

(** [to_decimal ~round ~digits t] renders [t] with [digits] decimals,
    rounded towards +∞ ([`Up]) or −∞ ([`Down]): the printed number
    bounds [t] from that side, so a period rounded up is never below
    the true one and a slack rounded down never above it.  A zero
    result prints without a sign.
    @raise Invalid_argument when [digits] is negative. *)
val to_decimal : round:[ `Up | `Down ] -> digits:int -> t -> string

val pp : Format.formatter -> t -> unit
