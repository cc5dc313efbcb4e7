(** Karp's algorithm for the maximum cycle mean, and the classic
    delay-element reduction from maximum cycle ratio to maximum cycle
    mean.

    Karp (1978) computes [max over cycles of Σweight/|C|] exactly in
    O(V·E) using the table of maximum k-edge path weights.  The cycle
    {e ratio} [Σρ/Σδ] of an SRDF graph reduces to a cycle mean on the
    graph of its {e delay elements}: every token becomes one edge, and
    zero-token paths are contracted into longest-path weights between
    the tokens they connect.  This gives a third MCR implementation —
    exact like the binary search, division-free like Howard — that the
    tests use to cross-validate both
    ({!Dataflow.Analysis.max_cycle_ratio},
    {!Dataflow.Howard.max_cycle_ratio}). *)

(** [max_cycle_mean ~num_vertices ~edges] computes
    [max over cycles of (Σ weight) / (number of edges)] of the directed
    multigraph given as [(src, dst, weight)] triples; [None] when the
    graph is acyclic.
    @raise Invalid_argument on out-of-range endpoints. *)
val max_cycle_mean :
  num_vertices:int -> edges:(int * int * float) list -> float option

(** [max_cycle_ratio g] computes the maximum cycle ratio of [g] using
    the delay-element reduction and {!max_cycle_mean}.  Uses the
    graph's integral token counts (the continuous [δ′] relaxation does
    not apply to this method). *)
val max_cycle_ratio : Dataflow.Srdf.t -> Dataflow.Analysis.mcr_result
