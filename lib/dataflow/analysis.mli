(** Throughput classification shared by the MCR methods.

    The key fact (Reiter 1968, recalled as Constraint (1) of the paper)
    is that a periodic admissible schedule (PAS) with period [µ] exists
    iff the difference-constraint system

    {v s(vj) ≥ s(vi) + ρ(vi) − δ(eij)·µ        for every queue eij v}

    is feasible, i.e. iff the constraint graph has no cycle of positive
    weight.  Equivalently, a PAS with period [µ] exists iff [µ] is at
    least the maximum cycle ratio (MCR)
    [max over cycles C of (Σ_{v∈C} ρ(v)) / (Σ_{e∈C} δ(e))].
    {!Howard} computes the MCR, in floats or exactly; this module holds
    the result type and the structural test both start from.

    Token counts may be overridden with real values — the paper's
    continuous relaxation [δ′] — via the [tokens] argument. *)

(** Classification of a graph's throughput behaviour. *)
type mcr_result =
  | Mcr of float
      (** the maximum cycle ratio; the minimum feasible PAS period *)
  | Deadlocked
      (** some cycle carries zero tokens (and positive duration): no
          schedule exists for any period *)
  | Acyclic  (** no cycles: every positive period admits a PAS *)

(** [token_fun g] is the default token function reading [Srdf.tokens]. *)
val token_fun : Srdf.t -> Srdf.edge -> float

(** [classify ?tokens g] is the structural precondition shared by every
    MCR method: [`Deadlocked] when some cycle carries no tokens,
    [`Acyclic] when the graph has no cycle at all, [`Cyclic]
    otherwise. *)
val classify :
  ?tokens:(Srdf.edge -> float) -> Srdf.t ->
  [ `Deadlocked | `Acyclic | `Cyclic ]
