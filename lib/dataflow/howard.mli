(** Howard's policy-iteration algorithm for the maximum cycle ratio,
    and the exact MCR it proposes cycles for.

    Instead of O(log(1/ε)) Bellman–Ford feasibility checks, policy
    iteration improves a "policy" (one outgoing edge per actor) whose
    policy graph's worst cycle converges to the maximum cycle ratio.
    In practice it needs only a handful of iterations, which is why
    tools like SDF3 use it.  Its answer is a float: {!Csdf} prints it
    as the iteration period.  Every verdict on a mapped graph goes
    through {!exact} instead, where Howard's critical cycle is only the
    first guess of an exact max-plus cycle-ratio computation (the
    worst-case throughput of Skelin, Geilen et al.); the [mcr]
    ablation ([budgetbuf experiment mcr]) compares the two, and the
    test suite checks both against Karp's algorithm and a
    binary-search oracle.

    The MCR is the smallest period admitting a periodic schedule
    ({!Analysis}). *)

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

(** [proposal ?rho g] is Howard's critical cycle (its queues, in cycle
    order) with its exact ratio, the first guess of {!exact}: a lower
    bound on the exact MCR, so a proposal above a period proves that
    no PAS with that period exists.  [None] when the graph is acyclic
    or deadlocked, or no cycle has a positive ratio.
    @raise Invalid_argument when [rho] has the wrong length. *)
val proposal :
  ?rho:Exact.Rat.t array -> Srdf.t -> (Exact.Rat.t * Srdf.edge list) option

(** [exact ?rho g] is the maximum cycle ratio of [g] in exact rational
    arithmetic, with a critical cycle (its queues, in cycle order)
    attaining it.  [rho.(i)] is the exact duration of the actor with
    id [i] (default: the exact value of its float duration); the
    graph's float durations only steer the proposal.

    {!critical_cycle} proposes a cycle; {!Exact.Rat} computes its
    ratio r; {!Exact.Bf} at period r either finds no positive cycle,
    which proves r maximal, or a heavier cycle, whose ratio is tried
    next.  Ratios strictly increase, so the loop ends.
    [`Deadlocked] and [`Acyclic] are {!Analysis.classify}'s, which
    decides them on integer token counts, so exactly.
    @raise Invalid_argument when [rho] has the wrong length. *)
val exact :
  ?rho:Exact.Rat.t array -> Srdf.t ->
  [ `Acyclic | `Deadlocked | `Mcr of Exact.Rat.t * Srdf.edge list ]
