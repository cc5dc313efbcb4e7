(** The joint budget and buffer-size computation flow — the paper's
    headline contribution.

    [solve] builds Algorithm 1 for the whole configuration, runs the
    interior-point solver under the recovery ladder below, applies
    the conservative roundings [β = g·⌈β′/g⌉] and [γ = ι + ⌈δ′⌉], and
    certifies the rounded mapping exactly ({!Certify}): Constraint (1)
    (a periodic admissible schedule with the required period), the
    processor budget capacities and the memory capacities, in rational
    arithmetic.  That certificate is the one verdict on the mapping.
    By the monotonicity argument of Section IV it must be [Certified]
    whenever the solver returned an optimal continuous point; it is
    nevertheless computed and returned with every result.

    Resilience (docs/robustness.md): a single interior-point run can
    stop with [Stalled] or [Iteration_limit] on a badly conditioned
    instance.  Instead of surfacing that status, [solve] climbs a
    recovery ladder, one attempt per rung, until a rung answers:

    + [Base] — the caller's parameters and warm point, unchanged;
    + [Relaxed] — the tolerance loosened 10× (accepting the "close to
      optimal" iterate the strict run rejected) and a cold start: the
      retry must not repeat the seeded trajectory that just failed;
    + [Fallback_lp] — the problem restated as [Fair_share] budgets plus
      the simplex buffer LP of {!Two_phase}: not the joint optimum, but
      a certified mapping.

    A cone rung that returns [Optimal], an infeasibility certificate (a
    float ray of the homogeneous embedding, accepted within the rung's
    tolerance, not an exact proof; a retry would find the same ray) or
    [Timed_out] answers; [Stalled] and [Iteration_limit] climb.  Every
    attempt is recorded in {!result.recovery} and traced as a
    [Rung_enter] / [Rung_exit] pair.  A recovered (degraded) solve must
    be certified, or [solve] returns an error rather than silently
    handing back an unverified mapping.  Simulating the mapping
    ({!Tdm_sim.Sim}) is left to the caller.

    Fault injection: a {!Robust.Fault.plan} decides which attempts run
    with a sabotaged solver ({!Conic.Socp.params.inject}), letting tests
    pin every rung deterministically; an attempt the plan does not
    cover keeps the caller's own [inject] hook.  A plan that covers the
    simplex rung's attempt disables it. *)

type stage = Base | Relaxed | Fallback_lp

(** One ladder attempt: its rung and the status it returned, as
    printed by {!Conic.Socp.pp_status} for a cone rung, and
    ["recovered (simplex)"] or ["failed"] for the simplex rung. *)
type attempt = { stage : stage; status : string }

(** [stage_name s] is ["base"], ["relaxed"] or ["fallback-lp"], the
    label trace events carry. *)
val stage_name : stage -> string

(** [recovered attempts] is true when the solve needed more than the
    [Base] attempt. *)
val recovered : attempt list -> bool

(** [pp_recovery ppf attempts] prints ["base: stalled; relaxed: optimal"]. *)
val pp_recovery : Format.formatter -> attempt list -> unit

type stats = {
  variables : int;
  rows : int;
  iterations : int;  (** interior-point iterations of the last cone attempt *)
  attempts : int;  (** recovery-ladder attempts, 1 in normal operation *)
  solve_time_s : float;  (** wall-clock time of the whole solve ladder *)
  kkt_fallbacks : int;
      (** iterations of the last cone attempt where the sparse KKT
          factorisation fell back to the dense Cholesky *)
}

type result = {
  mapped : Taskgraph.Config.mapped;
  continuous : Socp_builder.continuous;
      (** the pre-rounding optimum, for reporting the trade-off curves
          (on the LP-fallback path: the fallback's own values) *)
  objective : float;  (** continuous optimum of Objective (5) *)
  rounded_objective : float;
      (** Objective (5) evaluated on the rounded β, γ *)
  certificate : Certify.t;
      (** the verdict on the rounded mapping: [Certified] with the
          exact start-time witness, or [Refuted] with the violated
          constraint or positive-cycle witness.  A {e recovered} solve
          (including the LP fallback) is returned only when certified;
          a first-attempt result carries its certificate whatever it
          says, so callers that need a feasible mapping test
          {!Certify.certified} *)
  recovery : attempt list;
      (** one attempt per rung run, in order; more than one means the
          solve was recovered *)
  stats : stats;
  warm : Conic.Socp.warm option;
      (** the optimal primal/dual point of the cone rung that answered,
          in the original coordinates — a warm-start seed for a nearby
          instance ({!Dse.min_period_scale} chains its probes on it);
          [None] on the LP-fallback path *)
}

(** Why a solve failed without a verdict on the instance. *)
type failure =
  | Stalled  (** the last cone rung stalled and no fallback answered *)
  | Iteration_limit  (** the same, with the iteration limit hit *)
  | Unbounded  (** the cone program is dual infeasible *)
  | Uncertifiable  (** a recovered mapping was refuted *)
  | Non_finite  (** the optimum held a value rounding refuses *)
  | Exception  (** the candidate raised, in a sweep *)

type error =
  | Infeasible of string
      (** the cone program is primal infeasible: no budget/buffer
          assignment meets the throughput requirement under the given
          processor, memory and capacity bounds *)
  | Solver_failure of { cause : failure; detail : string }
      (** every rung of the recovery ladder returned an unusable status
          (or a recovered mapping was refuted by its certificate);
          [detail] is the message {!pp_error} prints *)
  | Timed_out of string
      (** the solve's cooperative deadline ([?deadline] of {!solve})
          expired mid-solve.  Unlike a
          [Solver_failure] this is not a verdict about the instance at
          all: no later rung of the recovery ladder is tried (the
          deadline is already blown), and the durable sweep layer
          deliberately does {e not} journal it, so a resume retries the
          candidate. *)

(** [solve ?params ?deadline ?warm ?fault ?obs cfg] runs the full flow.
    [params] tunes the interior-point solver (default
    {!Conic.Socp.default_params}; tests use it to inject a solver
    fault into every rung).  [deadline] is polled inside every cone
    rung ({!Durable.Deadline.none} installs no poll).  [warm] seeds the
    base rung only: the relaxed rung runs cold.  [fault] is the fault
    plan: absent, the one {!Robust.Fault.of_env} reads from
    [BUDGETBUF_FAULT]; [~fault:None], no fault whatever the environment
    says; [~fault:(Some p)], the plan [p].  [obs] receives the solve's
    trace events — solver iterations, recovery rungs, the certificate
    verdict — and the ["socp"] / ["finish"] phase spans; observation
    never changes the result (the trace-transparency property of
    test_obs.ml). *)
val solve :
  ?params:Conic.Socp.params ->
  ?deadline:Durable.Deadline.t ->
  ?warm:Conic.Socp.warm ->
  ?fault:Robust.Fault.plan option ->
  ?obs:Obs.Ctx.t ->
  Taskgraph.Config.t ->
  (result, error) Stdlib.result

(** [round_and_certify ~fault ?obs cfg ~budget ~space] is the rounding
    step of {!solve}, applied to a continuous point given as its
    budgets [β′] and initially-empty containers [δ′]: the budgets
    rounded to [g·⌈β′/g⌉] and the capacities to [ι + ⌈δ′⌉], first with
    the {!Rounding.round_eps} snap, kept iff {!Certify.check} certifies
    them, else strictly; a [bad_round] plan then corrupts the mapping
    (as in {!solve}).  Returns the mapping with its certificate, which
    [obs] receives as a [Certificate] event (each check in a
    ["certify"] span); [Error reason] when a value is not finite. *)
val round_and_certify :
  fault:Robust.Fault.plan option ->
  ?obs:Obs.Ctx.t ->
  Taskgraph.Config.t ->
  budget:(Taskgraph.Config.task -> float) ->
  space:(Taskgraph.Config.buffer -> float) ->
  (Taskgraph.Config.mapped * Certify.t, string) Stdlib.result

(** [capped_below_tokens cfg] is a buffer whose capacity cap is below
    its initial tokens, if any: no mapping of [cfg] exists then, at any
    period, and {!solve} returns [Infeasible] naming it without
    building the cone program. *)
val capped_below_tokens : Taskgraph.Config.t -> Taskgraph.Config.buffer option

(** [label e] is ["infeasible"], ["timed out"] or the label of a
    failure's cause, from the one table that skip summaries and
    journals share: ["stalled"], ["iteration limit"], ["unbounded"],
    ["uncertifiable"], ["non-finite"] or ["exception"]. *)
val label : error -> string

(** [failure_of_name s] is the cause labelled [s], if any. *)
val failure_of_name : string -> failure option

(** [fail cause detail] is [Error (Solver_failure { cause; detail })]. *)
val fail : failure -> string -> ('a, error) Stdlib.result

(** [of_exn e] is the [Exception] failure of a candidate that raised
    [e]: its detail starts ["uncaught exception: "]. *)
val of_exn : exn -> ('a, error) Stdlib.result

(** [skipped outcome points] lists the [(key, label e)] of every point
    whose [outcome] is [(key, Error e)] with [e] not [Infeasible], for
    the sweeps' ["skipped: N (labels)"] summaries. *)
val skipped :
  ('p -> 'k * ('a, error) Stdlib.result) -> 'p list -> ('k * string) list

(** [pp_error ppf e] prints an error. *)
val pp_error : Format.formatter -> error -> unit
