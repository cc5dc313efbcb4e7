(** Algebraic modelling layer over {!Socp}.

    Lets callers build cone programs from named scalar variables and
    affine expressions instead of assembling the [(c, G, h, K)] data by
    hand.  Variables are free reals; non-negativity and cone membership
    are expressed through constraints.  Used by the core library to
    state Algorithm 1 almost verbatim. *)

type model
type var

(** Affine expressions [Σ coeffᵢ·varᵢ + const]. *)
type expr

(** [create ()] is an empty model. *)
val create : unit -> model

(** [variable m name] declares a fresh free scalar variable. *)
val variable : model -> string -> var

(** [var v] is the expression consisting of [v] alone. *)
val var : var -> expr

(** [const k] is the constant expression [k]. *)
val const : float -> expr

(** [term k v] is [k·v]. *)
val term : float -> var -> expr

(** [add e1 e2], [sub e1 e2], [neg e], [scale k e] are the affine
    combinators. *)
val add : expr -> expr -> expr

val sub : expr -> expr -> expr
val neg : expr -> expr
val scale : float -> expr -> expr

(** [sum es] adds a list of expressions. *)
val sum : expr list -> expr

(** [affine ?const terms] is [Σ k·v + const]. *)
val affine : ?const:float -> (float * var) list -> expr

(** [add_ge0 m e] constrains [e ≥ 0]. *)
val add_ge0 : model -> expr -> unit

(** [add_le m e1 e2] constrains [e1 ≤ e2]. *)
val add_le : model -> expr -> expr -> unit

(** [add_ge m e1 e2] constrains [e1 ≥ e2]. *)
val add_ge : model -> expr -> expr -> unit

(** [add_eq m e1 e2] constrains [e1 = e2] (as a pair of inequalities,
    since the interior-point solver works with cone constraints only). *)
val add_eq : model -> expr -> expr -> unit

(** [add_soc m ~head ~tail] constrains [‖tail‖₂ ≤ head]. *)
val add_soc : model -> head:expr -> tail:expr list -> unit

(** [add_hyperbolic m ~a ~b ~bound] constrains [a·b ≥ bound²] with
    [a, b ≥ 0], encoded as the second-order cone constraint
    [‖(a − b, 2·bound)‖ ≤ a + b].  This is exactly the paper's
    Constraint (8) [λ·β′ ≥ 1] when [bound = 1]. *)
val add_hyperbolic : model -> a:expr -> b:expr -> bound:float -> unit

(** [fix m v value] pins variable [v] to a constant.  The variable is
    eliminated by substitution when the program is assembled — unlike a
    pair of opposing inequalities this keeps the feasible set's
    interior non-empty, which interior-point methods require.
    [value] reported by {!result.value} afterwards. *)
val fix : model -> var -> float -> unit

(** [minimize m e] sets the objective to minimise [e]. *)
val minimize : model -> expr -> unit

(** Size introspection, for logging and the benches. *)
val num_variables : model -> int

val num_rows : model -> int

(** Read-only structural view of a model, for serialisation (see
    {!Lpfile}).  Variables are identified by their declaration index
    into [snap_vars]; terms appear exactly as recorded (duplicates are
    not merged — serialisers canonicalise). *)
type snapshot = {
  snap_vars : string array;  (** names in declaration order *)
  snap_fixed : (int * float) list;  (** {!fix}ed variables, index-sorted *)
  snap_rows :
    [ `Nonneg of (float * int) list * float
      (** the affine expression (terms, const) constrained ≥ 0 *)
    | `Soc of ((float * int) list * float) list
      (** head :: tail expressions with [‖tail‖₂ ≤ head] *) ]
    list;  (** constraint blocks in insertion order *)
  snap_objective : (float * int) list * float;  (** minimised expression *)
}

val snapshot : model -> snapshot

type result = {
  status : Socp.status;
  objective : float;  (** primal objective including constant terms *)
  value : var -> float;
  raw : Socp.solution;
}

(** The cone program a model lowers to, in {!Socp}'s form
    [minimize cᵀx + offset  s.t.  G·x + s = h, s ∈ cone].  Variables
    pinned with {!fix} are substituted: their column of [G] and entry
    of [c] stay zero, their contributions move into [h] and [offset],
    and constraint blocks that become constant and hold are left out.
    Each row of [G] sums the coefficients of a repeated variable in
    the order they were recorded; runs of scalar orthant rows share
    one [Nonneg] block. *)
type program = {
  c : Linalg.Vec.t;
  g : Sparse_rows.t;
  h : Linalg.Vec.t;
  cone : Cone.t;
  offset : float;  (** the objective's constant, fixed variables included *)
}

(** [lower m] is the program [m] lowers to, or [None] when a block whose
    variables are all fixed is violated (the model is then infeasible
    outright). *)
val lower : model -> program option

(** [solve ?params ?deadline ?obs ?warm m] lowers [m] and runs
    {!Socp.solve} with the same arguments. *)
val solve :
  ?params:Socp.params ->
  ?deadline:(unit -> bool) ->
  ?obs:Obs.Ctx.t ->
  ?warm:Socp.warm ->
  model ->
  result
