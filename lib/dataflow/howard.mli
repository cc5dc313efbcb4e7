(** Howard's policy-iteration algorithm for the maximum cycle ratio.

    An alternative to the binary search of {!Analysis.max_cycle_ratio}:
    instead of O(log(1/ε)) Bellman–Ford feasibility checks, it
    iteratively improves a "policy" (one outgoing edge per actor) whose
    policy graph's worst cycle converges to the maximum cycle ratio.
    In practice it needs only a handful of iterations, which is why
    tools like SDF3 use it; here it serves both as the fast path and as
    an independent implementation the binary search is cross-validated
    against (see the [mcr] ablation, [budgetbuf experiment mcr]).

    Both methods agree on the same {!Analysis.mcr_result}
    classification: the MCR is the smallest period admitting a periodic
    schedule. *)

(** [max_cycle_ratio ?tokens ?eps g] computes the maximum over all
    cycles of (total firing duration) / (total tokens).
    [eps] (default 1e-9) is the improvement threshold of the policy
    iteration; [tokens] overrides the token counts (the continuous δ′
    relaxation), like in {!Analysis}. *)
val max_cycle_ratio :
  ?tokens:(Srdf.edge -> float) -> ?eps:float -> Srdf.t -> Analysis.mcr_result

(** [critical_cycle ?tokens ?eps g] additionally returns the actors of
    a cycle attaining the maximum ratio — the {e critical cycle} whose
    firing durations and tokens bound the graph's throughput.  [None]
    when the graph is acyclic or deadlocked. *)
val critical_cycle :
  ?tokens:(Srdf.edge -> float) -> ?eps:float -> Srdf.t ->
  (float * Srdf.actor list) option
