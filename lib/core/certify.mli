(** Exact rational certification of mapped configurations.

    The solver rounds a continuous optimum onto the discrete grids; a
    floating-point Bellman–Ford check of the result would carry the
    very rounding error it is guarding against.  This module is the
    one verdict on a rounded mapping: it rebuilds the SRDF constraint
    graph of the {e rounded} mapping in exact rational arithmetic
    (ρ(v1) = ̺ − β and ρ(v2) = ̺·χ/β are exact rationals once β is a
    float) and decides constraints (1)–(10) with no tolerance at all:
    a periodic admissible schedule with period µ via exact
    Bellman–Ford, processor capacity including the scheduler overhead,
    memory pre-reservation, latency and buffer bounds.

    The verdict is machine-checkable either way: [Certified] carries
    the exact start-time potentials (substituting them into every
    constraint verifies the certificate by rational evaluation alone),
    [Refuted] carries the violated constraint or a positive-weight
    cycle with its exact excess. *)

type witness = {
  starts : (string * Exact.Rat.t) list;
      (** Exact start time per SRDF actor ("task.1"/"task.2"),
          concatenated over all task graphs. *)
}

type refutation =
  | Violated of Violation.t
  | Positive_cycle of {
      graph : string;
      actors : string list;  (** SRDF actors along the cycle. *)
      excess : Exact.Rat.t;
          (** Exact cycle weight: how far the cycle overshoots the
              period budget per iteration. *)
    }

type t = Certified of witness | Refuted of refutation

(** [check cfg mapped] certifies or refutes the mapped configuration.
    Never raises: non-finite budgets refute with
    {!Violation.Non_finite}. *)
val check : Taskgraph.Config.t -> Taskgraph.Config.mapped -> t

val certified : t -> bool

(** One-line rendering: ["ok (exact, N start times)"] or
    ["refuted: ..."]. *)
val summary : t -> string

val pp : Format.formatter -> t -> unit
