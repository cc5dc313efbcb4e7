(** Human-readable report of a solved mapping.

    Collects in one place everything a designer asks of a mapping:
    the budgets and capacities themselves, per-processor TDM
    utilisation, per-memory occupancy, end-to-end latency per chain
    graph, throughput slack and the critical cycle.  Rendered as plain
    text by the CLI's [report] subcommand.

    Every verdict and figure in it is exact: the verification line is
    {!Certify.check}'s, listing every violated constraint
    ({!Certify.violations}), the achievable period and critical cycle
    are {!Certify.max_cycle_ratio}'s, and the latency is the one of the
    graph's earliest PAS ({!Certify.latency}).  Printed periods (the
    required one too) and latencies are rounded up and slacks down, so
    a printed [0.000] slack is never a negative one. *)

type processor_load = {
  proc : Taskgraph.Config.proc;
  allocated : float;  (** Σ budgets + overhead, Mcycles per interval *)
  utilisation : float;  (** allocated / replenishment *)
}

type memory_load = {
  memory : Taskgraph.Config.memory;
  occupied : int;  (** Σ γ·ζ over the buffers placed there *)
  fraction : float;  (** occupied / capacity; 0 for a 0-capacity memory *)
}

type graph_report = {
  graph : Taskgraph.Config.graph;
  period_required : float;
  critical : Certify.critical option;
      (** the mapped graph's exact MCR and critical cycle; [None] when
          it deadlocks or the mapping is invalid *)
  latency : Exact.Rat.t option;
      (** {!Certify.latency}: graphs with a unique source/sink pair and
          a PAS with their period *)
}

type t = {
  processors : processor_load list;
  memories : memory_load list;
  graphs : graph_report list;
  certificate : Certify.t;  (** the one verdict on the mapping *)
  violations : Violation.t list;
      (** {!Certify.violations}: every violated constraint, [[]]
          exactly when [certificate] is certified *)
}

(** [build cfg mapped] assembles the report. *)
val build : Taskgraph.Config.t -> Taskgraph.Config.mapped -> t

(** [pp cfg ppf t] renders the report. *)
val pp : Taskgraph.Config.t -> Format.formatter -> t -> unit
