(** Sequential-LP baseline for the joint computation.

    The paper argues (Section III) that it "does not see an option to
    arrive at a reasonable linearised approximation" of the budget
    reciprocal and therefore moves to a second-order cone program.
    This module implements the natural linearisation a practitioner
    would try — freeze [λ = 1/β] at the current budget estimate, solve
    the resulting {e linear} program for budgets, tokens and start
    times with the simplex, recompute [λ], repeat — so the claim
    can be tested instead of taken on faith.

    The iteration is a fixed-point heuristic, not a descent method: at
    the LP step the frozen [λ] makes the processing durations
    constants, so the LP is free to shrink budgets that the {e next}
    [λ] update then punishes.  The [slp] ablation
    ([budgetbuf experiment slp]) compares its trajectories against the
    one-shot cone program. *)

type outcome = {
  mapped : Taskgraph.Config.mapped;
  objective : float;  (** Objective (5) of the final rounded mapping *)
  iterations : int;  (** LP solves performed *)
  converged : bool;
      (** true when successive budget vectors agreed to [tolerance]
          before [max_iterations] *)
  verified : bool;
      (** true when the final rounded mapping is certified by
          {!Certify.check} — linearisation gives no guarantee *)
}

type error =
  | Infeasible of string
      (** some LP step was infeasible for the frozen λ — the false
          negative inherent to linearisation *)
  | Solver_failure of string

val pp_error : Format.formatter -> error -> unit

(** [solve ?max_iterations ?tolerance ?initial cfg] runs the iteration.
    [initial] chooses the budget starting point as a fraction of each
    processor's fair share (default 1.0 = the full fair share);
    [max_iterations] defaults to 25, [tolerance] to 1e-6. *)
val solve :
  ?max_iterations:int ->
  ?tolerance:float ->
  ?initial:float ->
  Taskgraph.Config.t ->
  (outcome, error) Stdlib.result
