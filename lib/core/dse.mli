(** Throughput-oriented design-space exploration.

    The paper takes the throughput requirement [µ] as an input; the
    dual question a designer asks is "what is the best throughput these
    resources can sustain?".  This module answers it over a common
    scale factor on all graph periods: one solve of the min-period form
    of Algorithm 1 ({!Socp_builder.build_min_period}) bounds the scale
    from below, and its rounded optimum — or, when that is refuted,
    probes of the joint budget/buffer program just above the bound —
    gives a certified mapping, yielding the minimum feasible
    period and, swept against a buffer-capacity cap, the classic
    throughput/buffer trade-off curve (Stuijk et al., DAC 2007, the
    two-phase flow the paper's Section I contrasts against). *)

(** [min_period_scale ?fault ?on_probe cfg] is the smallest
    factor [s] found such that the configuration with all periods
    scaled by [s] has a certified mapping.  [s ≤ 1] means the stated
    requirements hold with margin; [s > 1] means they must be relaxed
    by that factor.

    The search:
    - solves the min-period form once, cold, with the search's
      deadline and context (in a ["socp"] span, so a trace counts it): its
      optimum [s_c] lower-bounds every scale at which the cone program
      is feasible.  If that solve is not optimal, the bound falls back
      to the largest [χ/µ];
    - when every buffer is capped, rounds that optimum
      ({!Mapping.round_and_certify}: its budgets, every capacity at its
      cap) and certifies it at [s_c·(1 + 5e-5)], in a ["finish"] span.
      A certified bound mapping is the answer: the search ends on the
      one cone solve.  A binding memory row (the form leaves the memory
      rows out) or latency row refutes it, and the search probes;
    - otherwise probes scale 1 when [s_c < 1] (or without a bound);
    - probes [s_c·(1 + 5e-5)], and while a probe is not certified,
      gallops up, doubling the step [ε] of [s_c·(1 + ε)] and skipping
      scales at or below a failed probe, until a probe is certified or
      reaches the scale-1 answer;
    - bisects between the last failed probe (or [s_c]) and the
      certified one to a relative width of 1e-4.
    Every certified mapping (the bound's or a probe's) lowers the
    answer to its exact
    scale, the maximum over graphs of [MCR(g)/µ(g)]
    ({!Certify.max_cycle_ratio}), rounded up — provided the mapping is
    certified again at those periods (a latency bound may fail at a
    shorter period; the probe's own scale is kept then).  [None] when
    a buffer's cap is below its initial tokens (without any solve,
    see {!Mapping.capped_below_tokens}) or when no probe up to a 1000×
    relaxation is certified (a structural dead end such as an
    over-full memory — or a solver failure that survived the whole
    recovery ladder on every probe).

    All probes share one internal clone of [cfg] whose periods are
    rescaled in place — [cfg] itself is never mutated.  They also
    share one warm chain: each probe's cone solve starts from the
    optimum ({!Mapping.result.warm}) of the latest earlier probe that
    reached one, and the first cold; the bound solve always runs cold.
    The probe sequence and its seeds are therefore a pure function of
    [cfg].
    [fault] (absent: {!Robust.Fault.of_env}) reaches every probe's
    {!Mapping.solve} and the bound mapping's rounding (a [bad_round]
    plan corrupts it), never the bound solve.  A plan that faults the
    first ladder attempt ({!Robust.Fault.covers}[ ~attempt:1]) skips
    the bound mapping, so its probes still climb the ladder.
    [on_probe] is called with the scale of every
    feasibility probe (solve); the regression tests use it to pin the
    probe count so the fast path cannot silently regress.  A mapping
    is feasible iff its exact certificate ({!Certify}) is [Certified];
    [on_feasible] is called with every such mapping, the bound's or a
    probe's.  Each becomes the answer, so the last call describes the
    mapping behind the accepted scale.

    Inside {!throughput_curve}, whose per-candidate deadline rides into
    every probe, a probe that times out abandons the whole search: past
    the deadline, further probes could only time out too. *)
val min_period_scale :
  ?fault:Robust.Fault.plan option ->
  ?obs:Obs.Ctx.t ->
  ?on_probe:(float -> unit) ->
  ?on_feasible:(Taskgraph.Config.mapped -> unit) ->
  Taskgraph.Config.t ->
  float option

(** One capacity point of a throughput curve.  [outcome] is
    [Ok (Some period)] for a feasible cap, [Ok None] when no period up
    to the 1000× relaxation is feasible under that cap, and [Error e]
    when the candidate failed rather than proved infeasible: its first
    probe's [Solver_failure] or [Timed_out], or {!Mapping.of_exn} when
    its evaluation crashed (the sweep carries on — see
    {!Parallel.Pool.map_result}).  The period is the exact period of
    the mapping behind it, rounded up to a float, at which that
    mapping is certified ({!min_period_scale}); that mapping is the
    best one found at this cap or a smaller swept one
    ({!throughput_curve}).  The search accepts
    only probes whose mapping carries an exact rational certificate
    ({!Certify}), so every [Ok (Some _)] point is certified. *)
type curve_point =
  { cap : int; outcome : (float option, Mapping.error) Stdlib.result }

(** [curve_points points] keeps the feasible [(cap, period)] pairs, in
    sweep order — the historical shape of the curve. *)
val curve_points : curve_point list -> (int * float) list

(** The journal codec of {!throughput_curve}: [encode_point p] is
    [None] for [Timed_out]; [decode_point cap s] is [None] for a payload
    it refuses, such as a skip of no known cause, and restores a skip
    with an empty detail. *)
val encode_point : curve_point -> string option

val decode_point : int -> string -> curve_point option

(** [throughput_curve ?fault ?pool cfg ~caps] sweeps a shared
    buffer capacity cap and reports, per cap, the minimal feasible
    period of the {e first} task graph (single-graph configurations
    being the common case).  Every cap is an independent search
    ({!min_period_scale}) over independent solves; points come back in
    cap order, minus any
    abandoned to the deadline or cancellation.  The sweep harness —
    pool, journal, deadlines, cancellation, exception barrier, trace
    events and warm starts — is {!Durable.Sweep}'s; the per-candidate
    deadline bounds a cap's whole search; [fault] is read as by
    {!Mapping.solve}, once per sweep, and each cap's probes get
    {!Robust.Fault.for_candidate} of it, so a plan restricted with
    [only=I] applies to the probes of the 0-based [I]-th cap; and
    each cap's search solves its bound cold, which usually answers it,
    and otherwise probes cold first and chains its warm starts through
    its own probes ({!min_period_scale}) — no seed crosses caps, so every point and
    every cap's cone iterations are bit-identical across pool sizes and
    resumes.

    A mapping certified under a cap fits every larger one, so each
    feasible cap reports the smallest period found at that cap or any
    smaller swept cap: a monotone envelope, taken over the finished
    points once the sweep ends.

    Candidate verdicts: ["feasible"], ["infeasible"], ["skipped"] or
    ["timed out"].  The journal records each cap's own search outcome
    ({!encode_point}), floats bit-exact, and a resume takes the
    envelope again. *)
val throughput_curve :
  ?fault:Robust.Fault.plan option ->
  ?pool:Parallel.Pool.t ->
  ?deadline:Durable.Deadline.t ->
  ?candidate_deadline:float ->
  ?journal:Durable.Journal.t ->
  ?cancel:(unit -> bool) ->
  ?obs:Obs.Ctx.t ->
  ?on_progress:(Durable.Sweep.progress -> unit) ->
  Taskgraph.Config.t ->
  caps:int list ->
  curve_point list
