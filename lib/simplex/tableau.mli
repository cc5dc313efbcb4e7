(** Dense two-phase simplex on the standard form

    {v minimize cᵀx  subject to  A·x = b,  x ≥ 0 v}

    with [b ≥ 0] required (negate rows beforehand).  Pivoting uses
    Dantzig's rule with a fallback to Bland's rule after a stall budget,
    which guarantees termination.  It runs in floats with fixed
    tolerances, so its verdicts are float verdicts.  This is the
    workhorse behind {!Lp}; callers normally use that higher-level
    interface. *)

type verdict =
  | Optimal of {
      x : Linalg.Vec.t;
      objective : float;
      duals : Linalg.Vec.t;
          (** one multiplier per row: [duals.(i)] is the rate of change
              of the optimum per unit of [b.(i)] (recovered from the
              reduced costs of the artificial columns) *)
    }
  | Infeasible  (** phase 1 ended with a positive artificial objective *)
  | Unbounded   (** a negative reduced cost column has no positive entry *)

(** [solve ~a ~b ~c] runs two-phase simplex.
    @raise Invalid_argument on dimension mismatch or negative [b]. *)
val solve : a:Linalg.Mat.t -> b:Linalg.Vec.t -> c:Linalg.Vec.t -> verdict
