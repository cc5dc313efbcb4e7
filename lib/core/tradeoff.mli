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

(** [capacity_sweep ?fault ?pool cfg ~buffers ~caps] runs
    {!Mapping.solve} once per cap, setting [max_capacity] of every
    buffer in [buffers] to the cap on a private clone of [cfg] ([cfg]
    itself is left untouched).  Points come back in the order of
    [caps], minus any abandoned to the deadline or cancellation.  The
    caps are solved by {!Durability.solve_candidates} — pool, journal
    and its payload, deadlines, cancellation, exception barrier
    (a candidate that raises becomes that point's [Exception] failure),
    trace events and verdicts, warm starts and fault plans alike: a
    plan restricted with [only=I] applies to the 0-based [I]-th cap,
    and the warm anchor solves the first cap. *)
val capacity_sweep :
  ?fault:Robust.Fault.plan option ->
  ?pool:Parallel.Pool.t ->
  ?deadline:Durable.Deadline.t ->
  ?candidate_deadline:float ->
  ?journal:Durable.Journal.t ->
  ?cancel:(unit -> bool) ->
  ?obs:Obs.Ctx.t ->
  ?on_progress:(Durable.Sweep.progress -> unit) ->
  Taskgraph.Config.t ->
  buffers:Taskgraph.Config.buffer list ->
  caps:int list ->
  point list

(** [budget_of point task] extracts a task's continuous budget from a
    sweep point, or [None] if that run failed. *)
val budget_of : point -> Taskgraph.Config.task -> float option

(** [budget_deltas points task] pairs consecutive successful sweep
    points [(c₁, β₁), (c₂, β₂), …] into [(c₂, β₁ − β₂), …]: the budget
    reduction bought by each capacity increase (the paper's
    Figure 2(b)). *)
val budget_deltas : point list -> Taskgraph.Config.task -> (int * float) list
