(** The float checker of a mapped configuration, kept in the test tree
    as an oracle.  [Budgetbuf.Certify] decides every verdict of the
    library exactly; this module gives the independent float opinion
    the tests compare it with: the float Bellman–Ford of
    {!Pas_oracle} on a float SRDF model built here independently of the
    library's, with tolerances (1e-9 on processor capacity, 1e-6 on
    latency). *)

(** The paper's SRDF model of one mapped task graph (Section II-C), in
    floats: per task a waiting actor [v1] (ρ = ̺ − β, named ["w.1"])
    and a processing actor [v2] (ρ = ̺·χ/β, ["w.2"]). *)
type model = {
  srdf : Dataflow.Srdf.t;
  actor1 : Taskgraph.Config.task -> Dataflow.Srdf.actor;
  actor2 : Taskgraph.Config.task -> Dataflow.Srdf.actor;
}

(** [model cfg g mapped] builds it; [None] when a budget lies outside
    (0, ̺] or a capacity below the buffer's initial tokens. *)
val model :
  Taskgraph.Config.t -> Taskgraph.Config.graph -> Taskgraph.Config.mapped ->
  model option

(** [throughput_ok cfg g mapped] checks that the mapped budgets and
    capacities admit a PAS with period [µ(g)]; [false] when the model
    is undefined (a budget outside (0, ̺], a capacity below the initial
    tokens). *)
val throughput_ok :
  Taskgraph.Config.t -> Taskgraph.Config.graph -> Taskgraph.Config.mapped ->
  bool

(** [chain_latency cfg g mapped] is the end-to-end latency of [g]
    under the earliest float PAS with period [µ(g)], from the source's
    activation to the sink's completion; [None] when no PAS exists.
    @raise Invalid_argument when [g] has no unique source/sink pair. *)
val chain_latency :
  Taskgraph.Config.t -> Taskgraph.Config.graph -> Taskgraph.Config.mapped ->
  float option

(** [verify cfg mapped] lists every violated constraint: throughput
    per graph, processor capacity plus overhead, memory capacity,
    latency bounds and buffer bounds; empty when the mapping passes. *)
val verify :
  Taskgraph.Config.t -> Taskgraph.Config.mapped -> Budgetbuf.Violation.t list
