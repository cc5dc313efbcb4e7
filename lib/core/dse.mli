(** Throughput-oriented design-space exploration.

    The paper takes the throughput requirement [µ] as an input; the
    dual question a designer asks is "what is the best throughput these
    resources can sustain?".  This module answers it over a common
    scale factor on all graph periods, for buffers under capacity caps:
    one solve of the min-period form of Algorithm 1
    ({!Socp_builder.build_min_period}), whose rounded optimum is a
    certified mapping at the bound (Section IV's monotonicity), gives
    the minimum feasible period; swept against a buffer-capacity cap it
    yields the classic throughput/buffer trade-off curve (Stuijk et
    al., DAC 2007, the two-phase flow the paper's Section I contrasts
    against). *)

(** [min_period_scale ?fault ?obs ?on_feasible cfg] is the smallest
    factor [s] found such that the configuration with all periods
    scaled by [s] has a certified mapping.  [s ≤ 1] means the stated
    requirements hold with margin; [s > 1] means they must be relaxed
    by that factor.  Every buffer of [cfg] must be capped.

    It costs at most one cone solve:
    - a buffer whose cap is below its initial tokens
      ({!Mapping.capped_below_tokens}) admits no mapping at any period:
      [None], without a solve;
    - a memory that its buffers, each at its cap, would overfill has
      their caps lowered first, one container at a time, from the
      largest [ζ·cap] (the lowest buffer id on ties), never below
      [max(1, ι)] — a buffer with fewer containers deadlocks.  When
      even those floors overfill it: [None], without a solve;
    - the min-period form climbs the recovery ladder of {!Mapping.solve}
      ({!Mapping.climb}) with [fault] (absent: {!Robust.Fault.of_env}).
      An [Optimal] optimum [s_c] is rounded ({!Mapping.round_and_certify}:
      its budgets, every capacity at its cap) and certified at
      [s_c·(1 + 5e-5)], in a ["finish"] span; the simplex rung's
      mapping is certified at scale 1.  Any other verdict is the
      ladder's: an infeasible bound is [None], a stall that no rung
      recovered or a bound mapping the certificate refutes (a latency
      row the rounding breaks, or a [bad_round] plan) has no scale.
    The certified mapping lowers the answer to its exact scale, the
    maximum over graphs of [MCR(g)/µ(g)] ({!Certify.max_cycle_ratio}),
    rounded up — provided the mapping is certified again at those
    periods (a latency bound may fail at a shorter period; the scale it
    was certified at is kept then).  [on_feasible] is called with that
    mapping.

    The caps and periods change on an internal clone: [cfg] itself is
    never mutated.
    @raise Invalid_argument naming a buffer of [cfg] without a cap. *)
val min_period_scale :
  ?fault:Robust.Fault.plan option ->
  ?obs:Obs.Ctx.t ->
  ?on_feasible:(Taskgraph.Config.mapped -> unit) ->
  Taskgraph.Config.t ->
  float option

(** One capacity point of a throughput curve.  [outcome] is
    [Ok (Some period)] for a feasible cap, [Ok None] when no mapping
    exists under that cap at any period, and [Error e] when the
    candidate failed rather than proved infeasible: its bound solve's
    [Solver_failure] (a refuted bound mapping is [Uncertifiable]) or
    [Timed_out], or {!Mapping.of_exn} when its evaluation crashed (the
    sweep carries on — see {!Parallel.Pool.map_result}).  The period is
    the exact period of the mapping behind it, rounded up to a float,
    at which that mapping is certified ({!min_period_scale}); that
    mapping is the best one found at this cap or a smaller swept one
    ({!throughput_curve}).  Every [Ok (Some _)] point is backed by an
    exact rational certificate ({!Certify}). *)
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
    being the common case).  Every cap caps every buffer and is one
    independent, cold {!min_period_scale} solve; points come back in
    cap order, minus any abandoned to the deadline or cancellation.
    The sweep harness — pool, journal, deadlines, cancellation,
    exception barrier and trace events — is {!Durable.Sweep}'s; the
    per-candidate deadline bounds a cap's solve; [fault] is read as by
    {!Mapping.solve}, once per sweep, and each cap's solve gets
    {!Robust.Fault.for_candidate} of it, so a plan restricted with
    [only=I] applies to the 0-based [I]-th cap.  No seed crosses caps,
    so every point and every cap's cone iterations are bit-identical
    across pool sizes and resumes.

    A mapping certified under a cap fits every larger one, so each
    feasible cap reports the smallest period found at that cap or any
    smaller swept cap: a monotone envelope, taken over the finished
    points once the sweep ends.

    Candidate verdicts: ["feasible"], ["infeasible"], ["skipped"] or
    ["timed out"].  The journal records each cap's own outcome
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
