(** MPS / CPLEX-LP text codec for conic models — the external-solver
    differential-testing seam.

    A {!Model.model} is a cone program; solvers speaking MPS or LP
    text understand linear rows and (as quadratic constraints) the two
    faces of a second-order cone: [‖tail‖ ≤ head] becomes the linear
    row [head ≥ 0] plus the quadratic row [head² − Σ tailᵢ² ≥ 0].
    {!of_model} performs that expansion; the writers serialise the
    result; the parsers read it back.

    {b Dialect.}  The exporter writes a canonical form and the parsers
    accept exactly that form (plus a few benign spelling variants):

    - every variable appears in the bounds section ([FR]/[FX] in MPS,
      [free]/[= v] in LP), and the bounds section {e defines} the
      variable order — a variable used elsewhere but absent from
      bounds is an error.  Unbounded-below defaults are not part of
      the dialect: variables are free reals unless fixed, matching the
      model layer.
    - quadratic constraint terms use [QCMATRIX] (MPS) or a [[ ... ]]
      group (LP).  An LP group lists each canonical term [(i, j, k)]
      ([i ≤ j]) once with its full coefficient — CPLEX-LP reads
      constraint quadratics literally.  [QCMATRIX] is the symmetric
      matrix of [x'Qx]: diagonal terms appear once ([Qᵢᵢ = k]),
      off-diagonal terms as both halves ([Qᵢⱼ = Qⱼᵢ = k/2]), matching
      what external CPLEX/Gurobi readers expect; the parser merges
      same-pair entries, folding the halves back into one term.
    - floats render with ["%.17g"], which round-trips binary64
      bit-exactly.
    - rows without any term are not representable and are dropped.

    On canonical text (anything a writer produced), parse followed by
    re-export is byte-identical; the test suite pins this.  The
    parsers are {e total}: malformed input of any kind yields
    [Error _], never an exception — mirroring
    [Sdf_parse.of_string_result]. *)

type rel = Ge | Le | Eq
type bound = Free | Fixed of float

type row = {
  row_name : string;
  linear : (float * int) list;  (** coefficient, variable index *)
  quad : (float * int * int) list;  (** coefficient, i, j (i ≤ j once canonical) *)
  rel : rel;
  rhs : float;
}

type t = {
  name : string;  (** problem name; whitespace-trimmed, ["model"] if empty *)
  vars : string array;  (** variable names in declaration order *)
  bounds : bound array;  (** parallel to [vars] *)
  objective : (float * int) list;  (** minimised linear objective *)
  obj_const : float;  (** constant offset of the objective *)
  rows : row list;
}

(** [equal a b] compares canonical forms: merged, index-sorted terms,
    zero coefficients and empty rows dropped, and the name trimmed. *)
val equal : t -> t -> bool

(** [of_model ?name m] expands a model into the exchange form:
    variable names sanitised into identifier tokens (uniquified on
    collision), rows named [c0, c1, ...] in insertion order, each SOC
    block split into its linear and quadratic faces.  Fixed variables
    are kept (as [FX]/[= v] bounds), not substituted. *)
val of_model : ?name:string -> Model.model -> t

(** [to_mps t] renders canonical free-format MPS (with [QCMATRIX]
    sections for quadratic rows). *)
val to_mps : t -> string

(** [to_lp t] renders canonical CPLEX-LP text. *)
val to_lp : t -> string

(** Total parsers: [Error reason] on any damage, never an exception. *)
val of_mps_result : string -> (t, string) Stdlib.result

val of_lp_result : string -> (t, string) Stdlib.result

(** [of_string_result text] sniffs the format (MPS starts with [NAME],
    [ROWS] or a [*] comment) and dispatches. *)
val of_string_result : string -> (t, string) Stdlib.result
