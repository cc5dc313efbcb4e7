(** Throughput-oriented design-space exploration.

    The paper takes the throughput requirement [µ] as an input; the
    dual question a designer asks is "what is the best throughput these
    resources can sustain?".  This module answers it by bisecting over
    a common scale factor on all graph periods and re-running the joint
    budget/buffer program at each probe — yielding the minimum feasible
    period and, swept against a buffer-capacity cap, the classic
    throughput/buffer trade-off curve (Stuijk et al., DAC 2007, the
    two-phase flow the paper's Section I contrasts against). *)

(** [with_periods cfg ~scale] clones [cfg] with every task graph's
    period multiplied by [scale].
    @raise Invalid_argument if [scale <= 0]. *)
val with_periods : Taskgraph.Config.t -> scale:float -> Taskgraph.Config.t

(** [min_period_scale ?tolerance ?params ?policy ?on_probe cfg] is the
    smallest factor [s] such that the configuration with all periods
    scaled by [s] is feasible, found by bisection to relative
    [tolerance] (default 1e-4).  [s ≤ 1] means the stated requirements
    hold with margin; [s > 1] means they must be relaxed by that
    factor.  [None] when even a 1000× relaxation is infeasible (a
    structural dead end such as an over-full memory — or a solver
    failure that survived the whole recovery ladder on every probe).

    All probes share one internal clone of [cfg] whose periods are
    rescaled in place — [cfg] itself is never mutated.  [policy] is
    forwarded to every probe's {!Mapping.solve}.  [on_probe] is called
    with the scale of every feasibility probe (solve); the regression
    tests use it to pin the probe count so the fast path cannot
    silently regress.  [on_failure] is called with every probe error
    that is a solver failure (not an infeasibility verdict): the sweep
    drivers use it to tell a broken candidate from a genuine dead end
    and report it as skipped instead of infeasible.  A probe is
    feasible iff its mapping's exact certificate ({!Certify}) is
    [Certified]; [on_feasible] is called with the full
    {!Mapping.result} of every such probe.  Because the bisection only
    ever narrows onto feasible probes, the last such call describes
    the mapping behind the accepted scale.

    When [params] carries a {!Conic.Socp.params.deadline} and a probe
    times out, the whole search is abandoned ([None]) after reporting
    the timeout through [on_failure] — past the deadline, bisecting on
    further timed-out probes could only manufacture garbage bounds. *)
val min_period_scale :
  ?tolerance:float ->
  ?params:Conic.Socp.params ->
  ?policy:Robust.Recovery.policy ->
  ?obs:Obs.Ctx.t ->
  ?on_probe:(float -> unit) ->
  ?on_failure:(Mapping.error -> unit) ->
  ?on_feasible:(Mapping.result -> unit) ->
  Taskgraph.Config.t ->
  float option

(** One capacity point of a throughput curve.  [outcome] is
    [Ok (Some period)] for a feasible cap, [Ok None] when no period up
    to the 1000× relaxation is feasible under that cap, and
    [Error reason] when the candidate failed rather than proved
    infeasible — its solver failed past the whole recovery ladder, or
    its evaluation crashed (the sweep carries on — see
    {!Parallel.Pool.map_result}).  [certified] reports whether the
    mapping behind the accepted period carries an exact rational
    certificate ({!Certify}): always [true] for a freshly solved
    [Ok (Some _)], since only certified probes are accepted, and
    [false] for every other outcome.  The flag is journaled, so a
    point restored from a journal keeps its recorded verdict. *)
type curve_point = {
  cap : int;
  outcome : (float option, string) Stdlib.result;
  certified : bool;
}

(** [curve_points points] keeps the feasible [(cap, period)] pairs, in
    sweep order — the historical shape of the curve. *)
val curve_points : curve_point list -> (int * float) list

(** [curve_skipped points] lists the [(cap, reason)] of candidates that
    failed outright (not the merely infeasible ones). *)
val curve_skipped : curve_point list -> (int * string) list

(** [throughput_curve ?params ?policy ?pool cfg ~caps] sweeps a shared
    buffer capacity cap and reports, per cap, the minimal feasible
    period of the {e first} task graph (single-graph configurations
    being the common case).  Every cap is an independent bisection over
    independent solves; with [?pool] they are evaluated concurrently,
    with output bit-identical to the sequential sweep.  A failing
    candidate is reported in its own {!curve_point.outcome} instead of
    aborting the sweep.  A fault plan restricted with [only=I] applies
    to the 0-based [I]-th cap of the sweep.

    Durability (docs/robustness.md): [?journal] records every completed
    cap and restores the ones already present, so a killed sweep
    resumed against the same journal re-solves only the missing caps —
    with bit-identical points, because journal payloads round-trip
    floats exactly.  [?deadline] bounds the whole sweep and
    [?candidate_deadline] (seconds) each cap's bisection; both are also
    polled inside the interior-point iteration loop, so even a single
    slow solve stops promptly with a ["timed out"] outcome (which is
    {e not} journaled — a resume retries it).  [?cancel] is polled
    between candidates (cooperative cancellation — Ctrl-C handling in
    the CLI); candidates in flight are drained, not aborted.  A sweep
    cut short returns the points actually evaluated, in cap order;
    [?on_progress] reports the restored/solved/abandoned split.

    Observability (docs/observability.md): [?obs] rides into every
    probe's solver and emits one {!Obs.Trace.Candidate} event per
    newly-evaluated cap (verdict ["feasible"], ["infeasible"],
    ["skipped"] or ["timed out"]), one {!Obs.Trace.Restore} event per
    slot when a journal is consulted, and the pool's dispatch/join
    events.

    Warm starts: unless [~warm_start:false], each candidate runs one
    cold anchor solve (its own caps, unscaled period) whose solution
    seeds every probe of the bisection (see
    {!Budgetbuf.Durability.warm_anchor}); the seed is a pure function
    of the candidate, so points are bit-identical across pool sizes
    and journal resumes. *)
val throughput_curve :
  ?params:Conic.Socp.params ->
  ?policy:Robust.Recovery.policy ->
  ?pool:Parallel.Pool.t ->
  ?deadline:Durable.Deadline.t ->
  ?candidate_deadline:float ->
  ?journal:Durable.Journal.t ->
  ?cancel:(unit -> bool) ->
  ?obs:Obs.Ctx.t ->
  ?on_progress:(Durable.Sweep.progress -> unit) ->
  ?warm_start:bool ->
  Taskgraph.Config.t ->
  caps:int list ->
  curve_point list
