(** Sensitivity analysis of a mapped configuration.

    Once budgets and capacities are fixed, the SRDF model tells not
    just {e whether} the throughput requirement holds but also {e how
    tightly}: the throughput slack is the distance between the required
    period and the maximum cycle ratio, the critical cycle
    ({!Certify.max_cycle_ratio}) names the tasks and buffers that bound
    the throughput, and per-task budget slack, computed here,
    quantifies how much each budget could shrink before the requirement
    breaks — the diagnostics a designer needs to act on the paper's
    trade-off.  Every answer rests on the exact constraint graph of
    {!Certify}. *)

(** [budget_slack cfg g mapped w] is the largest reduction of [β(w)]
    (keeping every other budget and capacity fixed) that still admits a
    PAS with period [µ(g)] ({!Certify.schedulable}), computed by
    bisection to [tolerance] (default 1e-6); [0.] when the budget is
    already critical or the mapping misses its period.
    @raise Invalid_argument if [w] is not a task of [g]. *)
val budget_slack :
  ?tolerance:float ->
  Taskgraph.Config.t ->
  Taskgraph.Config.graph ->
  Taskgraph.Config.mapped ->
  Taskgraph.Config.task ->
  float
