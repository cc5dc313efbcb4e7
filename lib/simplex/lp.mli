(** Linear-program builder on top of {!Tableau}.

    Supports named variables with optional bounds (including free
    variables, which are split internally), [≤]/[≥]/[=] rows, and a
    minimisation or maximisation objective.  [Infeasible] and
    [Unbounded] come from the two-phase simplex, which makes this
    solver the reference the interior-point code is tested against,
    and the engine of the paper's two-phase baseline flow.  Its
    verdicts are float verdicts, not exact ones: {!Tableau} pivots
    over floats with fixed tolerances (1e-9 on pivots and reduced
    costs, 1e-7 on phase-one feasibility). *)

type problem
type var

(** Handle of a constraint row, for querying its dual multiplier. *)
type cns

type relation = Le | Ge | Eq

type solution = {
  objective : float;
  value : var -> float;  (** optimal value of a variable of this problem *)
  dual : cns -> float;
      (** shadow price: the rate of change of the optimum per unit of
          the constraint's right-hand side, in the problem's original
          sense and orientation *)
}

type verdict = Optimal of solution | Infeasible | Unbounded

(** [create ()] is an empty problem (minimisation by default). *)
val create : unit -> problem

(** [add_variable p ~name ?lb ?ub ()] declares a variable.
    [lb = Some 0.] by default; [lb = None] means free below,
    [ub = None] (default) means free above. *)
val add_variable :
  problem -> name:string -> ?lb:float option -> ?ub:float option -> unit -> var

(** [add_constraint p terms rel rhs] adds the row
    [Σ coeff·var  rel  rhs] and returns its handle.  Duplicate
    variables in [terms] are summed. *)
val add_constraint :
  problem -> (float * var) list -> relation -> float -> cns

(** [set_objective p ?maximize terms] sets the objective
    [Σ coeff·var] ([maximize] defaults to [false]). *)
val set_objective : problem -> ?maximize:bool -> (float * var) list -> unit

(** [num_variables p] and [num_constraints p] report problem size. *)
val num_variables : problem -> int

val num_constraints : problem -> int

(** [name p v] is the declared name of [v]. *)
val name : problem -> var -> string

(** [solve p] runs two-phase simplex and maps the verdict back to the
    original variables.  The reported [objective] is in the original
    sense (negated back for maximisation). *)
val solve : problem -> verdict
