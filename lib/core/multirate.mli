(** Multi-rate task graphs, compiled to the paper's single-rate model.

    The paper restricts the mapping flow to single-rate task graphs and
    names multi-rate support as the essential next step.  The deployable
    route today is refinement: expand the multi-rate graph so that every
    firing of a task within one graph iteration becomes its own
    single-rate task (with its own TDM window on the original task's
    processor), and every inter-firing dependency its own FIFO.  The
    result is an ordinary configuration that {!Mapping.solve} handles
    unchanged; Constraint (9) automatically charges the processor for
    all firing copies of a task.

    The refinement is conservative and implementable — each copy is a
    genuine schedulable entity — at the cost of granting each copy its
    own budget rather than one shared budget per original task, and one
    FIFO per dependency rather than one per original channel.  Both are
    reported back through {!provenance} so results can be aggregated
    per original task/channel. *)

type t
type rtask
type rchannel

(** [create ~granularity ()] starts an empty multi-rate specification
    (granularity as in {!Taskgraph.Config.create}). *)
val create : granularity:float -> unit -> t

(** [add_processor], [add_memory]: as in {!Taskgraph.Config}. *)
val add_processor :
  t -> name:string -> replenishment:float -> ?overhead:float -> unit ->
  Taskgraph.Config.proc

val add_memory : t -> name:string -> capacity:int -> Taskgraph.Config.memory

(** [add_graph t ~name ~period] declares a multi-rate graph whose
    throughput requirement is one full {e iteration} (every task firing
    its repetition-vector count) per [period] Mcycles. *)
val add_graph : t -> name:string -> period:float -> unit

(** [add_task t ~graph ~name ~proc ~wcet ?weight ()] adds a task
    (WCET per firing).
    @raise Invalid_argument on unknown graph or duplicate name. *)
val add_task :
  t -> graph:string -> name:string -> proc:Taskgraph.Config.proc ->
  wcet:float -> ?weight:float -> unit -> rtask

(** [add_channel t ~name ~src ~production ~dst ~consumption
    ?initial_tokens ?container_size ?weight ()] adds a rated channel:
    every firing of [src] produces [production] tokens, every firing of
    [dst] consumes [consumption].
    All compiled FIFOs (and the serialisation rings) are placed in the
    first declared memory.
    @raise Invalid_argument on non-positive rates or tasks of different
    graphs. *)
val add_channel :
  t -> name:string -> src:rtask -> production:int -> dst:rtask ->
  consumption:int -> ?initial_tokens:int -> ?container_size:int ->
  ?weight:float -> unit -> rchannel

type provenance = {
  config : Taskgraph.Config.t;  (** the compiled single-rate configuration *)
  copies : rtask -> Taskgraph.Config.task list;
      (** the firing copies of a task, in firing order *)
  fifos : rchannel -> Taskgraph.Config.buffer list;
      (** the dependency FIFOs a channel expanded into *)
  task_budget : Taskgraph.Config.mapped -> rtask -> float;
      (** total budget over all copies of the task *)
  channel_capacity : Taskgraph.Config.mapped -> rchannel -> int;
      (** total containers over all FIFOs of the channel *)
}

(** [compile ?serialize t] expands every graph, as a one-phase
    {!Dataflow.Csdf} graph (its repetition vector and
    {!Dataflow.Csdf.dependencies}), into a single-rate configuration:
    one FIFO per dependency queue, in expansion order.  The
    per-iteration period of a graph becomes the period of the compiled
    graph (each copy fires exactly once per iteration).

    [serialize] (default [false]) adds a one-token FIFO ring through
    each task's copies, enforcing strictly in-order, one-in-flight
    execution — required for tasks carrying state between firings.
    Note that under the paper's conservative model a one-token ring
    costs a full worst-case round trip (≈ Σ(̺ − β) over the copies) per
    iteration, so tight periods can make a serialized compilation
    infeasible that is feasible with independent (stateless) firings.
    @return [Error msg] on an inconsistent graph. *)
val compile : ?serialize:bool -> t -> (provenance, string) Stdlib.result
