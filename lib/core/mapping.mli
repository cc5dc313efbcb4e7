(** The joint budget and buffer-size computation flow — the paper's
    headline contribution.

    [solve] builds Algorithm 1 for the whole configuration, runs the
    interior-point solver under the {!Robust.Recovery} ladder, applies
    the conservative roundings [β = g·⌈β′/g⌉] and [γ = ι + ⌈δ′⌉], and
    certifies the rounded mapping exactly ({!Certify}): Constraint (1)
    (a periodic admissible schedule with the required period), the
    processor budget capacities and the memory capacities, in rational
    arithmetic.  That certificate is the one verdict on the mapping.
    By the monotonicity argument of Section IV it must be [Certified]
    whenever the solver returned an optimal continuous point; it is
    nevertheless computed and returned with every result.

    Resilience (docs/robustness.md): when the cone solve stalls, the
    recovery ladder retries once with relaxed tolerances, and then
    restates the problem on the simplex buffer LP of {!Two_phase}.  A
    recovered (degraded) solve must be certified, or [solve] returns
    an error rather than silently handing back an unverified mapping.
    Simulating the mapping ({!Tdm_sim.Sim}) is left to the caller. *)

type stats = {
  variables : int;
  rows : int;
  iterations : int;  (** interior-point iterations of the final attempt *)
  attempts : int;  (** recovery-ladder attempts, 1 in normal operation *)
  solve_time_s : float;  (** wall-clock time of the whole solve ladder *)
  kkt_fallbacks : int;
      (** iterations of the final attempt where the sparse KKT
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
  recovery : Robust.Recovery.trace;
      (** one attempt per solver run; more than one means the solve was
          recovered *)
  stats : stats;
  warm : Conic.Socp.warm option;
      (** the optimal primal/dual point of the cone rung that answered,
          in the original coordinates — a warm-start seed for a nearby
          instance ({!Dse.min_period_scale} chains its probes on it);
          [None] on the LP-fallback path *)
}

type error =
  | Infeasible of string
      (** the cone program is primal infeasible: no budget/buffer
          assignment meets the throughput requirement under the given
          processor, memory and capacity bounds *)
  | Solver_failure of string
      (** every rung of the recovery ladder returned an unusable status
          (or a recovered mapping was refuted by its certificate) *)
  | Timed_out of string
      (** the solve's cooperative deadline
          ({!Conic.Socp.params.deadline}) expired mid-solve.  Unlike a
          [Solver_failure] this is not a verdict about the instance at
          all: neither the recovery ladder nor the LP fallback is tried
          (the deadline is already blown), and the durable sweep layer
          deliberately does {e not} journal it, so a resume retries the
          candidate. *)

(** [solve ?params ?policy ?obs cfg] runs the full flow.  [params]
    tunes the interior-point solver; [policy] (default
    {!Robust.Recovery.default_policy}, which honours [BUDGETBUF_FAULT])
    controls the recovery ladder and fault injection.  [obs] (or a
    context already installed in [params]) receives the solve's trace
    events — solver iterations, recovery rungs, the certificate
    verdict — and the ["socp"] / ["finish"] phase spans; observation
    never changes the result (the trace-transparency property of
    test_obs.ml). *)
val solve :
  ?params:Conic.Socp.params ->
  ?policy:Robust.Recovery.policy ->
  ?obs:Obs.Ctx.t ->
  Taskgraph.Config.t ->
  (result, error) Stdlib.result

(** [capped_below_tokens cfg] is a buffer whose capacity cap is below
    its initial tokens, if any: no mapping of [cfg] exists then, at any
    period, and {!solve} returns [Infeasible] naming it without
    building the cone program. *)
val capped_below_tokens : Taskgraph.Config.t -> Taskgraph.Config.buffer option

(** [round_budget ~granularity beta'] is [g·⌈β′/g⌉] with a small
    tolerance so values within 1e-9 of a grid point do not round up an
    extra granule.  (= {!Rounding.round_budget}.) *)
val round_budget : granularity:float -> float -> float

(** [round_capacity ~initial_tokens delta'] is
    [max 1 (ι + ⌈δ′⌉)] with the same tolerance.
    (= {!Rounding.round_capacity}.) *)
val round_capacity : initial_tokens:int -> float -> int

(** [short_reason e] is a short stable label for sweep skip summaries:
    ["infeasible"], ["timed out"], ["stalled"], ["iteration limit"],
    ["unbounded"], ["exception"] or ["failure"]. *)
val short_reason : error -> string

(** [pp_error ppf e] prints an error. *)
val pp_error : Format.formatter -> error -> unit
