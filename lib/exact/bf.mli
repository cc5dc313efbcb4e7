(** Exact longest-path Bellman–Ford over rational edge weights: the
    one test of Reiter's PAS condition (the paper's Constraint (1)).

    Every node is seeded from a virtual source with potential 0, and
    edges relax upwards ([d(src) + w > d(dst)]) in exact rational
    arithmetic, with no epsilon.  A fixpoint is a periodic admissible
    schedule witness (the earliest one); divergence proves a
    positive-weight cycle, which is extracted from the predecessor
    graph.  [Budgetbuf.Certify] runs it at a graph's period, and
    [Dataflow.Howard.exact] at the ratio of a proposed critical cycle
    to confirm an exact maximum cycle ratio.  The float Bellman–Ford it
    replaced survives only as a test oracle. *)

type verdict =
  | Feasible of Rat.t array
      (** Exact potential (start time) per node. *)
  | Positive_cycle of int list
      (** Indices into the input edge array, in cycle order.  Empty
          only in the (theoretically unreachable) case where witness
          extraction failed; the positive-cycle verdict itself is
          still sound. *)

(** [longest_path ~nodes edges] where each edge is
    [(src, dst, weight)] with node indices in [0 .. nodes-1].

    Internally all weights are brought onto the least common
    denominator once, so the relaxation loop runs on integers: native
    [int] when the scaled weights are small enough that no relaxed
    value can overflow, {!Bigint} otherwise.  The two give the same
    verdict, potentials and cycle. *)
val longest_path : nodes:int -> (int * int * Rat.t) array -> verdict
