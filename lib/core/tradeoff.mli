(** Budget/buffer trade-off exploration (the paper's experiments).

    The experiments of Section V explore the trade-off by sweeping a
    cap on the buffer capacities and minimising the budgets under each
    cap.  [capacity_sweep] automates this: for each capacity bound it
    installs the bound on the selected buffers, solves the joint
    program, and collects the resulting budgets. *)

type point = {
  cap : int;  (** the capacity bound applied in this run *)
  result : (Mapping.result, Mapping.error) Stdlib.result;
}

(** [capacity_sweep ?params ?policy ?pool cfg ~buffers ~caps] runs
    {!Mapping.solve} once per cap, setting [max_capacity] of every
    buffer in [buffers] to the cap on a private clone of [cfg] ([cfg]
    itself is left untouched).  Points come back in the order of
    [caps]; with [?pool] the candidate solves run concurrently, with
    results bit-identical to the sequential sweep (see
    {!Parallel.Pool.map_result}).  A candidate that raises is recorded
    as that point's [Solver_failure] instead of aborting the sweep;
    a fault plan restricted with [only=I] applies to the 0-based
    [I]-th cap.

    Durability (docs/robustness.md): [?journal] records every completed
    cap (including infeasible and failed verdicts — they are verdicts)
    and restores recorded caps instead of re-solving them.  A restored
    point carries the exact objectives, continuous values and rounded
    mapping of the original solve, plus a
    {e freshly recomputed} exact certificate — the decoder re-certifies
    the restored mapping against the capped candidate configuration
    (the CRC guards the bits, the certifier guards the meaning) — but
    an empty [recovery] trace and zeroed [stats]: the solve did not run
    again.
    [?deadline] bounds the whole sweep, [?candidate_deadline] (seconds)
    each solve; both are polled inside the interior-point loop, and an
    expired candidate gets the [Timed_out] error — never journaled, so
    a resume retries it.  [?cancel] stops the sweep between candidates;
    abandoned caps are simply absent from the returned list
    ([?on_progress] reports the split).

    Observability (docs/observability.md): [?obs] rides into every
    candidate's solver and emits one {!Obs.Trace.Candidate} event per
    newly-solved cap (verdict ["ok"], ["infeasible"], ["skipped"] or
    ["timed out"]), one {!Obs.Trace.Restore} event per slot when a
    journal is consulted, and the pool's dispatch/join events.

    Warm starts: unless [~warm_start:false], one cold anchor solve on
    the first cap's bounds seeds every candidate's interior-point run
    (see {!Budgetbuf.Durability.warm_anchor}); because every candidate
    shares the same anchor, results are bit-identical across pool
    sizes and journal resumes.  Rungs past [Base] of the recovery
    ladder always run cold. *)
val capacity_sweep :
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
  buffers:Taskgraph.Config.buffer list ->
  caps:int list ->
  point list

(** [skipped points] lists the [(cap, reason)] of points whose solve
    failed (solver failures, not infeasibility verdicts), for the
    sweep reports' ["skipped: N (reason)"] summaries. *)
val skipped : point list -> (int * string) list

(** [budget_of point task] extracts a task's continuous budget from a
    sweep point, or [None] if that run failed. *)
val budget_of : point -> Taskgraph.Config.task -> float option

(** [budget_deltas points task] pairs consecutive successful sweep
    points [(c₁, β₁), (c₂, β₂), …] into [(c₂, β₁ − β₂), …]: the budget
    reduction bought by each capacity increase (the paper's
    Figure 2(b)). *)
val budget_deltas : point list -> Taskgraph.Config.task -> (int * float) list
