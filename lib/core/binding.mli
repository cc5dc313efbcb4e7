(** Task-to-processor binding and buffer-to-memory placement search.

    The paper computes budgets and buffer sizes for a {e given} binding
    and names the computation of the binding itself as future work
    (Section VI).  This module provides that step on top of
    {!Mapping.solve}: it explores candidate bindings, runs the joint
    budget/buffer program for each, and returns the best certified
    mapping.  Tasks on processors and buffers in memories go through
    one search; only the capacity an item takes in a bin differs.

    Bindings assume homogeneous processors with respect to execution
    time (a task's [χ] does not depend on the processor), matching the
    paper's model where [χ : W → ℝ⁺]. *)

type strategy =
  | Exhaustive of int
      (** try every assignment of tasks to processors, up to the given
          number of candidate bindings (safety bound; candidates beyond
          it are not explored) *)
  | Greedy_utilization
      (** sort tasks by their minimal utilisation [χ(w)/µ(T)]
          descending (a stable sort) and place each on the first
          processor with the most capacity left after the task's
          minimal budget reservation; a single solve *)
  | First_fit
      (** place tasks in declaration order on the first processor whose
          remaining capacity fits the task's minimal budget reservation;
          a single solve *)

type outcome = {
  config : Taskgraph.Config.t;
      (** a copy of the input carrying the chosen binding; every handle
          of the input is valid on it *)
  assignment : (string * string) list;  (** task name → processor name *)
  result : Mapping.result;  (** the joint solve for the chosen binding *)
  explored : int;  (** number of candidate bindings actually solved *)
}

(** [rebind cfg ~assign] is a {!Taskgraph.Config.copy} of [cfg] with
    every task [w] bound to [assign w] (handles of [cfg], which stay
    valid on the copy).  Everything else — names, weights, buffers,
    memories, bounds — is preserved, so [Config.pp] output differs only
    in the [proc] attributes. *)
val rebind :
  Taskgraph.Config.t ->
  assign:(Taskgraph.Config.task -> Taskgraph.Config.proc) ->
  Taskgraph.Config.t

(** [optimize ?strategy cfg] searches for a binding whose joint
    mapping minimises the rounded objective.  The input binding of
    [cfg] is ignored; only its processor set matters.  Defaults to
    [Greedy_utilization].
    @return [Error msg] when no explored binding is feasible. *)
val optimize :
  ?strategy:strategy -> Taskgraph.Config.t -> (outcome, string) Stdlib.result

(** [rebind_memories cfg ~assign] is a copy of [cfg] with every buffer
    [b] placed in [assign b] (handles of [cfg], valid on the copy);
    everything else is preserved. *)
val rebind_memories :
  Taskgraph.Config.t ->
  assign:(Taskgraph.Config.buffer -> Taskgraph.Config.memory) ->
  Taskgraph.Config.t

(** [optimize_memories ?strategy cfg] searches over
    buffer-to-memory placements, the second half of the paper's future
    work ("compute … the binding of buffers to memories").  [Exhaustive]
    enumerates placements up to its limit; the heuristics place buffers
    one by one — largest minimal footprint first for
    [Greedy_utilization], declaration order for [First_fit] — each into
    the memory with the most remaining capacity (greedy) or the first
    that fits (first-fit), reserving [(ι + 1)·ζ] per buffer.
    @return [Error msg] when no explored placement is feasible. *)
val optimize_memories :
  ?strategy:strategy -> Taskgraph.Config.t -> (outcome, string) Stdlib.result
