(** Discrete-event simulation of task graphs under TDM budget
    schedulers.

    This is the repo's stand-in for the paper's multiprocessor
    platform: each processor serves its tasks time-division-multiplexed
    with a static window of [β(w)] cycles per replenishment interval
    [̺(p)] (overhead [o(p)] reserved at the start of each interval).  A
    task execution starts when every input buffer holds at least one
    filled container and every output buffer at least one empty one; it
    then claims both, processes its worst-case execution time [χ(w)]
    inside its TDM windows, and on completion publishes the produced
    container downstream and releases the consumed one upstream —
    exactly the synchronisation behaviour the paper's dataflow model
    conservatively bounds (Wiggers et al., EMSOFT 2009).

    Because the dataflow model is conservative, a mapping that admits a
    PAS with period [µ] must simulate at a measured steady-state period
    ≤ [µ]; the tests assert this. *)

type report = {
  task_period : Taskgraph.Config.task -> float;
      (** steady-state inter-completion time of the task (measured over
          the second half of the run) *)
  graph_period : Taskgraph.Config.graph -> float;
      (** the slowest task period of the graph *)
  task_completions : Taskgraph.Config.task -> float array;
      (** completion instant of every simulated execution *)
  task_executions : Taskgraph.Config.task -> (float * float) array;
      (** per execution: the instant the task claimed its containers
          (start of the waiting phase) and its completion instant *)
  buffer_high_water : Taskgraph.Config.buffer -> int;
      (** the largest number of containers simultaneously unavailable
          to the producer (filled or claimed); never exceeds the
          mapped capacity, and equals it when the buffer ever ran
          full *)
  buffer_high_water_steady : Taskgraph.Config.buffer -> int;
      (** same measure restricted to the second half of the run
          (instants ≥ makespan/2, including the occupancy carried into
          that window) — the steady-state high water, immune to
          startup transients such as draining a pile of initial
          tokens; always ≤ [buffer_high_water] *)
  makespan : float;  (** time of the last simulated completion *)
}

(** [run cfg mapped ~iterations ?execution_time ()] simulates until
    every task completed [iterations] executions.

    [execution_time] supplies the {e actual} processing time of each
    execution (arguments: the task and its 0-based execution index);
    it defaults to the worst case [χ(w)].  Values are clamped to
    [(0, χ(w)]] — the paper's model is conservative only for actual
    times at most the declared worst case.  Varying execution times
    exercise the temporal-monotonicity property budget schedulers
    guarantee (Wiggers et al., EMSOFT 2009): finishing early can never
    hurt downstream progress.

    @return [Error reason] on deadlock (no runnable task before the
    iteration target is met) or when a budget/capacity is invalid
    (non-positive or non-finite budget, budget above its replenishment
    interval, capacity below the initial tokens, oversubscribed
    processor).
    @raise Invalid_argument if [iterations < 4] (too short to measure a
    steady-state period). *)
val run :
  Taskgraph.Config.t ->
  Taskgraph.Config.mapped ->
  iterations:int ->
  ?execution_time:(Taskgraph.Config.task -> int -> float) ->
  unit ->
  (report, string) Stdlib.result

(** {2 Plans and workspaces}

    [run] is a {!plan} (everything fixed by the configuration, the
    budgets and the iteration count) executed on a fresh
    {!workspace} (the mutable state of one run).  A caller that
    simulates one budget layout at many capacities builds the plan
    once and reuses one workspace for its sequential runs, which then
    allocate nothing that grows with their length. *)

(** Immutable, and safe to share across domains. *)
type plan

(** [plan cfg ~budget ~iterations] lays out the TDM windows and buffer
    adjacency of [cfg] under [budget] and validates the layout
    (non-positive or non-finite budgets, a budget above its
    replenishment interval, oversubscribed processors); a run of an
    invalid plan returns [Error _] (or [false] from {!meets}).
    @raise Invalid_argument if [iterations < 4]. *)
val plan :
  Taskgraph.Config.t ->
  budget:(Taskgraph.Config.task -> float) ->
  iterations:int ->
  plan

(** [simulate plan ~capacity ?execution_time ()] is {!run} of the
    plan's configuration and budgets with buffer [b] at capacity
    [capacity.(Config.buffer_id b)], on a fresh workspace.
    @raise Invalid_argument if [capacity] has fewer entries than the
    configuration has buffers. *)
val simulate :
  plan ->
  capacity:int array ->
  ?execution_time:(Taskgraph.Config.task -> int -> float) ->
  unit ->
  (report, string) Stdlib.result

(** The mutable state of one run, sized by its plan and reset by every
    run.  Not safe to share across domains. *)
type workspace

(** [workspace plan] allocates the state {!meets} needs for runs of
    [plan]: buffer fills, the event queue and, per task, the two
    completion instants its period is measured between.  Its size
    does not depend on the iteration count; the occupancy log and the
    execution instants only a {!report} reads are left out. *)
val workspace : plan -> workspace

(** [meets ws ~capacity ~threshold] runs the workspace's plan at
    [capacity] (worst-case execution times) and tells whether every
    task's measured period ({!report.task_period}) is at most
    [threshold.(Config.task_id w)]; deadlocks and invalid budgets or
    capacities give [false].  With non-negative thresholds this is
    [∀g. graph_period g ≤ thr g] of the {!simulate} report when every
    task of [g] carries [thr g].

    The run stops with [false] as soon as a task past half of its
    executions is bound to miss its threshold: every later completion
    happens no earlier than the current event, and the period is
    monotone in the last completion, so the verdict is the one the
    full run would give.  Allocates nothing that grows with the
    iteration count.
    @raise Invalid_argument if [capacity] or [threshold] is shorter
    than the number of buffers or tasks. *)
val meets : workspace -> capacity:int array -> threshold:float array -> bool

(** [cycle_refutes plan ~buffer ~capacity ~threshold] is [true] only
    when {!meets} is [false] for every capacity vector that gives
    buffer [buffer] (a dense buffer id) [capacity], whatever the other
    buffers hold; it runs no simulation.

    It bounds the token cycle of the buffer: with producer P,
    consumer C, initial tokens ι and F_T(t) the completion of χ_T
    started at [t] in T's window, P's (k+capacity)-th start needs C's
    (k+ι)-th completion, which needs P's k-th, so c_P[k+capacity] ≥
    G(c_P[k]) with G = F_P ∘ F_C.  G is non-decreasing and, when P and
    C share the replenishment interval ̺, G(t+̺) = G(t)+̺, so over
    the measured half (k1 = n/2, span = n−1−k1, M = ⌊span/capacity⌋)
    P's period exceeds (G^M(0) − ̺)/span; the buffer is refuted when
    that exceeds [threshold.(P)].

    The bound answers [false] (no verdict) unless the plan is valid,
    every window offset, budget, interval and WCET is an integer (so
    the simulator's event times are exact), P ≠ C, P and C share one
    interval, [capacity ≥ max(1, ι)] and M ≥ 1.  See
    docs/tightening.md, "Cycle bound". *)
val cycle_refutes :
  plan -> buffer:int -> capacity:int -> threshold:float array -> bool

(** [processing_completion ~window_offset ~budget ~interval ~start
    ~work] is the instant at which [work] cycles of processing finish
    when started at [start] and served only inside the TDM window
    [[k·interval + window_offset, k·interval + window_offset + budget)]
    of every interval [k].  Exposed for direct unit testing. *)
val processing_completion :
  window_offset:float ->
  budget:float ->
  interval:float ->
  start:float ->
  work:float ->
  float
