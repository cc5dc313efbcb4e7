(** Algorithm 1 of the paper: the second-order cone program that
    simultaneously computes budgets and buffer sizes.

    Variables, per the paper's formulation:
    - a start time [s(v)] for every actor of the SRDF model of every
      task graph (free reals);
    - a continuous budget [β′(w) ≥ 0] and its reciprocal surrogate
      [λ(w) ≥ 0] for every task;
    - a continuous count of initially-empty containers
      [δ′(b) ≥ 0] for every buffer (the space queue's tokens; the total
      continuous capacity is [ι(b) + δ′(b)]).

    Constraints (numbering follows the paper):
    - (6) for every queue in [E1]: [s(v2) ≥ s(v1) + ̺ − β′];
    - (7) for every queue in [E2], with the graph's period [µ]:
      self-loops give [̺·χ·λ ≤ µ], data queues
      [s(b1) ≥ s(a2) + ̺·χ·λ(a) − ι·µ], space queues
      [s(a1) ≥ s(b2) + ̺·χ·λ(b) − δ′·µ];
    - (8) [λ(w)·β′(w) ≥ 1] as a second-order cone
      ([‖(λ−β′, 2)‖ ≤ λ+β′]);
    - (9) per processor: [Σ (β′(w) + g) ≤ ̺(p) − o(p)], pre-reserving
      one granule per task for the rounding [β = g·⌈β′/g⌉];
    - (10) per memory: [Σ (ι + δ′ + 1)·ζ ≤ ς(m)], pre-reserving one
      container per buffer for the rounding [⌈δ′⌉];
    - capacity bounds [ι + δ′ ≤ cap] for buffers carrying a
      [max_capacity].

    Objective (5): minimise [Σ a(w)·β′(w) + Σ b(b)·ζ(b)·δ′(b)]. *)

type t = {
  model : Conic.Model.model;
  budget_var : Taskgraph.Config.task -> Conic.Model.var;  (** β′(w) *)
  lambda_var : Taskgraph.Config.task -> Conic.Model.var;  (** λ(w) *)
  space_var : Taskgraph.Config.buffer -> Conic.Model.var;
      (** δ′(b): continuous initially-empty containers *)
  start_var :
    Taskgraph.Config.task -> [ `A1 | `A2 ] -> Conic.Model.var;
      (** s(v1), s(v2) of the task's dataflow component *)
}

(** [build cfg] assembles the cone program for all task graphs of the
    configuration (they couple through shared processors and
    memories). *)
val build : Taskgraph.Config.t -> t

(** The min-period form of Algorithm 1, written by the same constraint
    writer as {!build}: every period [µ] becomes [s·µ] for one common
    scale [s], which is minimised.  With [s] a variable, the space-queue
    term [δ′·s·µ] of (7) is bilinear, so each capped buffer's [δ′] is
    fixed at [cap − ι] (more space only helps throughput) and an
    uncapped buffer's space-queue row is left out, as are the memory
    rows (10); (6), the self-loop and data-queue rows of (7), (8), (9)
    and the latency rows stay.  Every scale at which {!build}'s program
    (periods scaled by [s]) is feasible is feasible here, so the optimum
    lower-bounds the scale of every mapping the cone program can
    return.  Its optimum is also a mapping at that scale: every capped
    buffer sits at its cap, and (9) reserves the granule that rounding
    the budgets up needs. *)
type min_period = {
  bound_model : Conic.Model.model;
  scale_var : Conic.Model.var;  (** s *)
  bound_budget_var : Taskgraph.Config.task -> Conic.Model.var;  (** β′(w) *)
}

(** [build_min_period cfg] assembles the min-period form.  Every
    capped buffer's cap must be at least its initial tokens. *)
val build_min_period : Taskgraph.Config.t -> min_period

(** Continuous solution extracted from a solved model. *)
type continuous = {
  budget : Taskgraph.Config.task -> float;
  lambda : Taskgraph.Config.task -> float;
  space : Taskgraph.Config.buffer -> float;
  capacity : Taskgraph.Config.buffer -> float;
      (** [ι(b) + space b]: total continuous containers *)
  objective : float;
}

(** [extract cfg t result] reads the variable values back. *)
val extract : Taskgraph.Config.t -> t -> Conic.Model.result -> continuous
