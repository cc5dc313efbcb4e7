(** Staged recovery ladder around the cone solve.

    A single interior-point run can stop with [Stalled] or
    [Iteration_limit] on badly conditioned instances.  Instead of
    surfacing that status immediately, {!solve_model} climbs a ladder
    of retries, each one cheaper to certify than to predict:

    + [Base] — the caller's parameters, unchanged;
    + [Relaxed] — tolerances loosened by 10× (accepts the "close to
      optimal" iterate the strict run rejected);
    + [Deep] — [max_iter] raised 4× (slow-but-steady convergence);
    + [Jittered] — deep iteration budget, loose tolerances, a smaller
      fraction-to-boundary step and forced Ruiz re-equilibration — a
      genuinely different trajectory through the central path.

    Every rung past [Base] also drops any warm-start point from the
    parameters: the retry must not repeat the seeded trajectory that
    just failed.

    The ladder stops at the first attempt that returns [Optimal] or an
    infeasibility certificate (a float ray of the homogeneous embedding,
    accepted within the rung's tolerances, not an exact proof; a retry
    would find the same ray).  Every attempt is recorded in a {!trace} that
    callers surface in stats and reports.  A fifth, problem-specific
    rung — falling back to the simplex buffer LP — lives in
    [Budgetbuf.Mapping], which alone knows how to restate the problem;
    it reuses {!Fault.covers} and the [Fallback_lp] stage label here.

    Fault injection: the policy's {!Fault.plan} decides which attempts
    run with a sabotaged solver ({!Conic.Socp.params.inject}), letting
    tests pin every rung deterministically.  An attempt the plan does
    not cover keeps the caller's own [inject] hook. *)

type stage = Base | Relaxed | Deep | Jittered | Fallback_lp

(** One ladder attempt: which rung, the solver status it returned (as
    printed by {!Conic.Socp.pp_status}, or a short free-form note for
    the fallback), and its cost. *)
type attempt = {
  stage : stage;
  status : string;
  iterations : int;
  time_s : float;
}

type trace = attempt list

val stage_name : stage -> string

(** [attempts trace] is the number of attempts recorded. *)
val attempts : trace -> int

(** [recovered trace] is true when the solve needed more than the
    [Base] attempt. *)
val recovered : trace -> bool

(** [pp_trace ppf trace] prints ["base: stalled; relaxed: optimal"]. *)
val pp_trace : Format.formatter -> trace -> unit

type policy = {
  fault : Fault.plan option;  (** injected faults, for tests *)
}

(** [default_policy ()] reads {!Fault.of_env} and enables the full
    ladder.  Evaluated per call so the environment is honoured even
    when the library was loaded earlier.
    @raise Invalid_argument on a malformed [BUDGETBUF_FAULT]. *)
val default_policy : unit -> policy

(** [with_fault plan] is {!default_policy} with [plan] injected in
    place of [BUDGETBUF_FAULT]; [None] keeps the environment's plan.
    The one place a [--fault] flag or an admit's fault spec becomes a
    policy. *)
val with_fault : Fault.plan option -> policy

(** [rung_params base stage] is [base] adjusted for [stage] (the table
    above).  [Fallback_lp] returns [base] unchanged. *)
val rung_params : Conic.Socp.params -> stage -> Conic.Socp.params

(** [solve_model ?policy ?params m] runs the ladder over
    {!Conic.Model.solve} and returns the last result together with the
    trace (≥ 1 attempt).  The result is the first [Optimal] /
    certificate outcome, or the final rung's failure. *)
val solve_model :
  ?policy:policy ->
  ?params:Conic.Socp.params ->
  Conic.Model.model ->
  Conic.Model.result * trace
