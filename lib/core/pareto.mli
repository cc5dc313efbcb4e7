(** Pareto frontier of the budget / buffer trade-off.

    The paper exposes the trade-off through the coefficients of
    Objective (5): "different trade-offs between budget and buffer
    sizes can be made by changing the coefficients of the optimised
    cost function".  Because the continuous problem is convex, sweeping
    the weight ratio between the budget term and the buffer term traces
    the (convex hull of the) Pareto frontier between total budget and
    total buffer space.  This module automates that sweep. *)

type point = {
  weight_ratio : float;
      (** budget weight over buffer weight used for this point *)
  budget_sum : float;  (** Σ β′(w) at the continuous optimum *)
  buffer_containers : int;
      (** Σ γ(b) of the rounded mapping (total containers) *)
  rounded_objective : float;
  certified : bool;
      (** whether the rounded mapping behind this point carries an
          exact rational certificate (see {!Certify}); a point restored
          from a journal is re-certified *)
}

(** A frontier sweep: the surviving non-dominated points plus the
    {!Mapping.skipped} [(ratio, label)] of candidates whose solve failed
    outright (the rest of the frontier is still returned — one
    permanently failing candidate costs one point, not the sweep). *)
type sweep = { points : point list; skipped : (float * string) list }

(** [frontier ?steps ?fault ?pool cfg] solves the joint
    program for [steps] (default 9) weight ratios spread geometrically
    between heavily budget-dominant and heavily buffer-dominant and
    returns the non-dominated points sorted by increasing buffer use.
    Budget sums compare rounded to whole granules; among ratios that
    tie on containers and granules the smallest ratio represents the
    point, so the frontier does not depend on which recovery rung
    answered a candidate.  Each ratio reweights a private clone of
    [cfg], so the configuration is never mutated.  Infeasible
    instances yield an empty [points] list; failing, crashing and
    timed-out candidates land in [skipped].  The ratios are solved by
    {!Durability.solve_candidates} — pool, journal, deadlines,
    cancellation, exception barrier, trace events, warm starts and
    fault plans alike: a plan restricted with [only=I] applies to the
    0-based [I]-th ratio, and the warm anchor solves the first ratio.
    Its journal holds each ratio's [Mapping] result, from which a
    restored point is derived exactly as a fresh one; frontier pruning
    always re-runs over the union of restored and fresh results.
    @raise Invalid_argument if [steps < 1]. *)
val frontier :
  ?steps:int ->
  ?fault:Robust.Fault.plan option ->
  ?pool:Parallel.Pool.t ->
  ?deadline:Durable.Deadline.t ->
  ?candidate_deadline:float ->
  ?journal:Durable.Journal.t ->
  ?cancel:(unit -> bool) ->
  ?obs:Obs.Ctx.t ->
  ?on_progress:(Durable.Sweep.progress -> unit) ->
  Taskgraph.Config.t ->
  sweep

(** [pp_point ppf p] prints one frontier point. *)
val pp_point : Format.formatter -> point -> unit
