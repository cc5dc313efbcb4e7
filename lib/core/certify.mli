(** Exact rational certification of mapped configurations.

    The solver rounds a continuous optimum onto the discrete grids; a
    floating-point Bellman–Ford check of the result would carry the
    very rounding error it is guarding against.  This module is the
    one verdict on a rounded mapping: it rebuilds the SRDF constraint
    graph of the {e rounded} mapping in exact rational arithmetic
    (ρ(v1) = ̺ − β and ρ(v2) = ̺·χ/β are exact rationals once β is a
    float) and decides constraints (1)–(10) with no tolerance at all:
    a periodic admissible schedule with period µ via exact
    Bellman–Ford, processor capacity including the scheduler overhead,
    memory pre-reservation, latency and buffer bounds.

    The verdict is machine-checkable either way: [Certified] carries
    the exact start-time potentials (substituting them into every
    constraint verifies the certificate by rational evaluation alone),
    [Refuted] carries the violated constraint or a positive-weight
    cycle with its exact excess.

    The same exact constraint graph answers the diagnostic questions
    every command prints: the minimal period a mapped graph sustains
    ({!max_cycle_ratio}, an exact maximum cycle ratio with its critical
    cycle) and whether it admits a schedule at its period on its own
    ({!schedulable}).  There is no float verdict on a mapping besides
    these. *)

type witness = {
  starts : (string * Exact.Rat.t) list;
      (** Exact start time per SRDF actor ("task.1"/"task.2") of the
          earliest PAS, concatenated over all task graphs. *)
}

type refutation =
  | Violated of Violation.t
  | Positive_cycle of {
      graph : string;
      actors : string list;  (** SRDF actors along the cycle. *)
      excess : Exact.Rat.t;
          (** Exact cycle weight: how far the cycle overshoots the
              period budget per iteration. *)
    }

type t = Certified of witness | Refuted of refutation

(** [check cfg mapped] certifies or refutes the mapped configuration.
    A refuted mapping carries the first violated constraint, checking
    the throughput and latency of each graph in order, then processor
    capacity, memory and buffer bounds; {!violations} lists them all.
    Never raises: non-finite budgets refute with
    {!Violation.Non_finite}. *)
val check : Taskgraph.Config.t -> Taskgraph.Config.mapped -> t

val certified : t -> bool

(** [violation cfg r] is the constraint [r] violates: a positive cycle
    is a missed throughput requirement ({!Violation.Throughput}). *)
val violation : Taskgraph.Config.t -> refutation -> Violation.t

(** [violations cfg mapped] is every constraint the mapping violates,
    decided as {!check} decides them and in the same order, so it is
    [[]] exactly when {!check} certifies and otherwise starts with
    {!check}'s refutation.  A budget outside (0, ̺] or a non-finite one
    is listed alone: every other constraint divides by the budgets. *)
val violations :
  Taskgraph.Config.t -> Taskgraph.Config.mapped -> Violation.t list

(** [latency cfg mapped g] is the end-to-end latency of graph [g]'s
    earliest PAS with period µ(g), the schedule {!check}'s witness holds
    for [g]: from the activation of the source's waiting actor to the
    completion of the sink's processing actor
    ({!Taskgraph.Config.chain_ends}), [s(sink.2) + ρ(sink.2) − s(source.1)].
    [None] when [g] has no PAS with its period, invalid budgets or
    capacities, or no unique source/sink pair. *)
val latency :
  Taskgraph.Config.t -> Taskgraph.Config.mapped -> Taskgraph.Config.graph ->
  Exact.Rat.t option

(** [srdf cfg g mapped] is the SRDF model of the mapped graph [g]
    (Section II-C of the paper) that {!check} decides, with its exact
    durations rounded to floats.  Each task [w] becomes two actors and
    two queues:

    {v
        w.1: ρ = ̺(π(w)) − β(w)          (waiting for the TDM window)
        w.2: ρ = ̺(π(w))·χ(w) / β(w)     (processing under the budget)
        w.1 → w.2 with 0 tokens, w.2 → w.2 self-loop with 1 token
    v}

    and each buffer [b] from [wa] to [wb] a pair of opposite queues: the
    data queue [wa.2 → wb.1] carrying [ι(b)] initial tokens and the
    space queue [wb.2 → wa.1] carrying [γ(b) − ι(b)] initially empty
    containers.  Actors and queues are numbered in that order, task by
    task, then buffer by buffer.  Wiggers et al. (EMSOFT 2009) prove
    this model conservative for budget schedulers, so a PAS of the SRDF
    graph with period [µ(T)] certifies the task graph's throughput.
    [Error] names the violation when a budget lies outside (0, ̺] or a
    capacity below the initial tokens. *)
val srdf :
  Taskgraph.Config.t -> Taskgraph.Config.graph -> Taskgraph.Config.mapped ->
  (Dataflow.Srdf.t, Violation.t) result

(** [schedulable cfg g mapped] holds when the mapped graph [g] on its
    own admits a PAS with period µ(g): Constraint (1) decided as
    {!check} decides it, with budgets outside (0, ̺] or capacities
    below the initial tokens refused. *)
val schedulable :
  Taskgraph.Config.t -> Taskgraph.Config.graph -> Taskgraph.Config.mapped ->
  bool

(** [schedulable_budget cfg g mapped w] is the test
    [fun beta -> schedulable cfg g mapped'] where [mapped'] is [mapped]
    with [β(w) = beta]: the exact model is built once and only [w]'s two
    durations change per call.  A non-finite budget, or one outside
    (0, ̺], is refused.
    @raise Invalid_argument if [w] is not a task of [g]. *)
val schedulable_budget :
  Taskgraph.Config.t -> Taskgraph.Config.graph -> Taskgraph.Config.mapped ->
  Taskgraph.Config.task -> float -> bool

(** The cycle that bounds a mapped graph's throughput. *)
type critical = {
  ratio : Exact.Rat.t;
      (** the exact maximum cycle ratio: the smallest period admitting a
          PAS *)
  slack : Exact.Rat.t;
      (** µ(g) − [ratio]: how much the period could tighten; negative
          when the mapping misses it *)
  tasks : Taskgraph.Config.task list;
      (** tasks with an actor on the critical cycle, in graph order *)
  buffers : Taskgraph.Config.buffer list;
      (** buffers with a queue on the critical cycle, in graph order *)
}

(** [max_cycle_ratio cfg g mapped] is the exact maximum cycle ratio of
    the mapped graph [g] and a cycle attaining it
    ({!Dataflow.Howard.exact} on the exact constraint graph of
    {!check}): float Howard proposes a cycle, the exact Bellman–Ford
    at its ratio confirms it or returns a heavier one.  So [g] is
    schedulable exactly when [ratio] is at most the exact µ(g).  [None]
    when the mapped graph deadlocks (a cycle without tokens) or its
    budgets or capacities are invalid. *)
val max_cycle_ratio :
  Taskgraph.Config.t -> Taskgraph.Config.graph -> Taskgraph.Config.mapped ->
  critical option

(** [pp_critical cfg ppf c] prints
    ["critical cycle at ratio R: tasks {..}, buffers {..}"], the ratio
    rounded up to four decimals. *)
val pp_critical : Taskgraph.Config.t -> Format.formatter -> critical -> unit

(** One-line rendering: ["ok (exact, N start times)"] or
    ["refuted: ..."]. *)
val summary : t -> string

val pp : Format.formatter -> t -> unit
