(** Float oracles for Reiter's PAS condition (Constraint (1) of the
    paper), kept in the test tree as independent opinions on what the
    library decides exactly ({!Dataflow.Howard.exact},
    [Budgetbuf.Certify]): a float Bellman–Ford with a relative
    tolerance, the binary-search maximum cycle ratio on top of it, a
    schedule checker and a self-timed (ASAP) execution.  Token counts
    may be overridden with real values via [tokens], as in
    {!Dataflow.Analysis}. *)

open Dataflow

(** [pas_exists ?tokens g ~period] checks whether a PAS with the given
    period exists (Bellman–Ford positive-cycle detection).
    @raise Invalid_argument if [period <= 0]. *)
val pas_exists : ?tokens:(Srdf.edge -> float) -> Srdf.t -> period:float -> bool

(** [pas_start_times ?tokens g ~period] returns start times [s] (indexed
    by {!Srdf.actor_id}) realising a PAS with the given period, or
    [None] if none exists.  The returned schedule satisfies
    [s.(j) ≥ s.(i) + ρ(i) − δ(eij)·period] for every queue. *)
val pas_start_times :
  ?tokens:(Srdf.edge -> float) -> Srdf.t -> period:float -> float array option

(** [max_cycle_ratio ?tokens ?eps g] computes the MCR by binary search
    over Bellman–Ford feasibility checks; [eps] is the relative
    precision of the search (default 1e-12). *)
val max_cycle_ratio :
  ?tokens:(Srdf.edge -> float) -> ?eps:float -> Srdf.t -> Analysis.mcr_result

(** Self-timed (as-soon-as-possible) execution of the graph. *)
type self_timed = {
  starts : float array array;
      (** [starts.(k).(v)] is the start time of firing [k+1] of actor
          [v] under ASAP execution *)
  measured_period : float;
      (** average per-iteration advance of the slowest actor over the
          second half of the run — converges to the MCR for live
          strongly-connected graphs *)
}

(** [self_timed ?iterations g] simulates [iterations] firings of every
    actor (default 100).
    @return [Error reason] when the graph deadlocks (a zero-token cycle
    is hit). *)
val self_timed : ?iterations:int -> Srdf.t -> (self_timed, string) result

(** [check_schedule ?tokens g ~period s] verifies that start times [s]
    satisfy Constraint (1) for every queue, within tolerance [1e-9];
    returns the list of violated queues (empty when the schedule is
    admissible).  Useful as an independent certificate check. *)
val check_schedule :
  ?tokens:(Srdf.edge -> float) ->
  Srdf.t ->
  period:float ->
  float array ->
  Srdf.edge list
