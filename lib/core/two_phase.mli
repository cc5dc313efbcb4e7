(** The state-of-practice baseline the paper argues against: computing
    budgets and buffer sizes in two separate phases of the mapping flow
    (Moreira et al. EMSOFT'07, Stuijk et al. DAC'07).

    Because neither phase sees the other's degrees of freedom, the
    two-phase flow either wastes resources or produces {e false
    negatives} — it reports "infeasible" although a joint assignment
    exists (Section I of the paper).  The variants here make that
    comparison measurable:

    - {!budget_first}: pick budgets by a buffer-blind policy, then
      compute minimal buffer capacities by linear programming (the
      simplex, pivoting in floats with fixed tolerances);
    - {!buffer_first}: pick buffer capacities by a budget-blind policy,
      then compute minimal budgets with the capacities pinned;
    - {!alternating}: coordinate descent alternating the two phases
      until the objective stops improving.

    The simplex LP of Algorithm 1 is written once, as
    {!linear_program}: the buffer LP of {!budget_first} and
    {!alternating} fixes the budgets, and {!Slp}'s frozen-λ step frees
    them. *)

(** Budget policy for the buffer-blind first phase. *)
type budget_policy =
  | Min_budget
      (** the smallest budget each task needs in isolation,
          [β = g·⌈̺·χ/µ / g⌉] (the self-loop bound): cheapest budgets,
          most likely to make the buffer phase infeasible *)
  | Fair_share
      (** split each processor's interval evenly over its tasks:
          generous budgets, smallest buffers, poor budget objective *)

(** [fair_share cfg w] is [w]'s [Fair_share] budget: the largest
    granule multiple [β] with [n·β ≤ ̺ − o] over the [n] tasks of its
    processor, in exact rationals, and at least one granule. *)
val fair_share : Taskgraph.Config.t -> Taskgraph.Config.task -> float

(** Buffer policy for the budget-blind first phase. *)
type buffer_policy =
  | At_bound
      (** every buffer at its [max_capacity] (buffers without a bound
          get [fallback]) *)
  | Uniform of int  (** every buffer at [ι + n] containers *)

type result = {
  mapped : Taskgraph.Config.mapped;
  objective : float;
      (** Objective (5) on the final (rounded) mapping, comparable with
          {!Mapping.result.rounded_objective} *)
  rounds : int;  (** number of phase solves performed *)
  certificate : Certify.t;
      (** exact rational certificate of the final mapping; always
          [Certified], since a refuted mapping is returned as a
          [Solver_failure] instead *)
}

type error =
  | Infeasible of string
      (** the phase decomposition failed even though a joint solution
          may exist — the false negative the paper describes *)
  | Solver_failure of string

val pp_error : Format.formatter -> error -> unit

(** [objective_of cfg mapped] is Objective (5) on a rounded mapping:
    weighted budgets plus weighted containers beyond the initially
    filled ones.  Both flows report it ({!result.objective},
    {!Mapping.result.rounded_objective}). *)
val objective_of : Taskgraph.Config.t -> Taskgraph.Config.mapped -> float

(** [settle ?obs f] is the finish step both flows share: [f ()] rounds
    a mapping and certifies it.  A non-finite solver output reaching
    the grid ({!Rounding.Non_finite}) becomes [Error] with a one-line
    message; otherwise [obs] receives the certificate's verdict as a
    {!Obs.Trace.Certificate} event and the pair is returned. *)
val settle :
  ?obs:Obs.Ctx.t ->
  (unit -> Taskgraph.Config.mapped * Certify.t) ->
  (Taskgraph.Config.mapped * Certify.t, string) Stdlib.result

(** [budget_first ?policy ?obs cfg] runs phase 1 (budgets) then phase 2
    (buffer LP via simplex).  [obs] receives a {!Obs.Trace.Certificate}
    verdict event when the flow reaches certification. *)
val budget_first :
  ?policy:budget_policy ->
  ?obs:Obs.Ctx.t ->
  Taskgraph.Config.t ->
  (result, error) Stdlib.result

(** [linear_program cfg ~duration ~budget] is Algorithm 1 as a linear
    program, solved with the two-phase simplex (float pivots): with
    every ρ(v2) frozen at [duration w], Constraints (6), (7) and (10)
    are linear in the start times and the continuous space tokens δ′.
    With [`Fixed beta] the budgets are constants: (6) keeps [̺ − β] on
    its right-hand side, a task with ρ(v2) > µ gets a constant
    infeasible row, and the objective weighs only buffers.  With
    [`Free] each β is a variable under Constraint (9), less one
    granule per task kept for rounding, and the objective is
    Objective (5).  Returns the optimum's budgets (the fixed ones
    under [`Fixed]) and δ′. *)
val linear_program :
  Taskgraph.Config.t ->
  duration:(Taskgraph.Config.task -> float) ->
  budget:[ `Fixed of Taskgraph.Config.task -> float | `Free ] ->
  ( (Taskgraph.Config.task -> float) * (Taskgraph.Config.buffer -> float),
    [ `Infeasible | `Unbounded ] )
  Stdlib.result

(** [buffer_sizing_lp cfg ~budget] is the phase-2 linear program alone:
    minimal (rounded) buffer capacities for the given fixed budgets,
    {!linear_program} at [`Fixed budget] with ρ(v2) = ̺·χ/β.  Exposed
    so the benches can cross-check the simplex and interior-point
    solvers on the very same LP. *)
val buffer_sizing_lp :
  Taskgraph.Config.t ->
  budget:(Taskgraph.Config.task -> float) ->
  (Taskgraph.Config.buffer -> int, error) Stdlib.result

(** [buffer_first ?policy ?fallback cfg] fixes capacities (phase 1)
    then minimises budgets with the capacities pinned in the cone
    program (phase 2).  [fallback] (default 2: double buffering) is
    used by [At_bound] for buffers without a [max_capacity]. *)
val buffer_first :
  ?policy:buffer_policy ->
  ?fallback:int ->
  Taskgraph.Config.t ->
  (result, error) Stdlib.result

(** [alternating ?max_rounds cfg] starts from [Fair_share] budgets and
    alternates buffer-LP and budget-minimisation phases until the
    objective improves by less than 1e-6 or [max_rounds] (default 10)
    phase pairs ran.  Monotonically non-increasing in the objective but
    can settle above the joint optimum.
    @raise Invalid_argument if [max_rounds < 1]. *)
val alternating :
  ?max_rounds:int ->
  Taskgraph.Config.t ->
  (result, error) Stdlib.result
