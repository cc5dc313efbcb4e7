(** Task graph → SRDF construction (Section II-C of the paper).

    Each task [w] becomes a two-actor dataflow component:

    {v
        ρ(v1) = ̺(π(w)) − β(w)          (waiting for the TDM window)
        ρ(v2) = ̺(π(w))·χ(w) / β(w)     (processing under the budget)
        v1 → v2 with 0 tokens, v2 → v2 self-loop with 1 token
    v}

    Each buffer [b] from [wa] to [wb] becomes a pair of opposite
    queues: the data queue [va2 → vb1] carrying [ι(b)] initial tokens
    and the space queue [vb2 → va1] carrying [γ(b) − ι(b)] initially
    empty containers.  Wiggers et al. (EMSOFT 2009) prove this model
    conservative for budget schedulers, so a PAS of the SRDF graph with
    period [µ(T)] certifies the task graph's throughput. *)

type t = {
  srdf : Dataflow.Srdf.t;
  actor1 : Taskgraph.Config.task -> Dataflow.Srdf.actor;
  actor2 : Taskgraph.Config.task -> Dataflow.Srdf.actor;
  self_edge : Taskgraph.Config.task -> Dataflow.Srdf.edge;
  transition_edge : Taskgraph.Config.task -> Dataflow.Srdf.edge;
      (** the zero-token [v1 → v2] queue (queue set [E1]) *)
  data_edge : Taskgraph.Config.buffer -> Dataflow.Srdf.edge;
  space_edge : Taskgraph.Config.buffer -> Dataflow.Srdf.edge;
}

(** [build cfg g ~budget ~capacity] constructs the SRDF graph of task
    graph [g] for the given budgets (Mcycles) and buffer capacities
    (containers).
    @raise Invalid_argument if a budget is not in (0, ̺(π(w))] or a
    capacity is below the buffer's initially-filled containers. *)
val build :
  Taskgraph.Config.t ->
  Taskgraph.Config.graph ->
  budget:(Taskgraph.Config.task -> float) ->
  capacity:(Taskgraph.Config.buffer -> int) ->
  t

(** [throughput_ok cfg g mapped] checks that the mapped budgets and
    capacities admit a PAS with period [µ(g)]. *)
val throughput_ok :
  Taskgraph.Config.t -> Taskgraph.Config.graph -> Taskgraph.Config.mapped ->
  bool

(** [chain_ends cfg g] is the unique task of [g] with no incoming
    buffer and the unique task with no outgoing buffer, as
    [Some (source, sink)]; [None] when either is not unique. *)
val chain_ends :
  Taskgraph.Config.t ->
  Taskgraph.Config.graph ->
  (Taskgraph.Config.task * Taskgraph.Config.task) option

(** [chain_latency cfg g mapped] is the end-to-end latency (Mcycles)
    of [g] from the activation of its source to the completion of its
    sink ({!chain_ends}).  Data item [k] is accepted when the source's
    waiting actor starts its [k]-th firing and delivered when the
    sink's processing actor finishes its [k]-th firing, so under a PAS
    with start times [s] the per-item latency is the constant
    [s(sink.v2) + ρ(sink.v2) − s(source.v1)]; the start times are
    those of the earliest PAS with period [µ(g)] (Bellman–Ford
    potentials).  [None] when the mapped graph admits no such
    schedule.
    @raise Invalid_argument when [g] has no unique source/sink pair. *)
val chain_latency :
  Taskgraph.Config.t -> Taskgraph.Config.graph -> Taskgraph.Config.mapped ->
  float option

(** [verify cfg mapped] checks the whole mapped configuration:
    throughput of every task graph (via {!throughput_ok}), processor
    budget capacity (Constraint (4) plus overhead), and memory
    capacity.  Returns the list of structured violations, empty when
    the mapping is valid; render with {!Violation.to_string}. *)
val verify : Taskgraph.Config.t -> Taskgraph.Config.mapped -> Violation.t list

(** [min_feasible_period cfg g mapped] is the smallest period the
    mapped graph can sustain (its SRDF maximum cycle ratio), useful for
    reporting slack; [None] when the graph deadlocks. *)
val min_feasible_period :
  Taskgraph.Config.t -> Taskgraph.Config.graph -> Taskgraph.Config.mapped ->
  float option
