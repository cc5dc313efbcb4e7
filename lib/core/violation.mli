(** Structured constraint violations: what a refuted certificate
    ({!Certify}) violates, as {!Certify.violation} and
    {!Certify.violations} name it for the CLI, {!Report} and
    {!Dataflow_model.verify}.

    Each variant names the violated constraint, the system objects
    involved and the two sides of the inequality, so callers can
    pattern-match on the cause instead of grepping message strings;
    {!to_string} renders the exact diagnostic lines the CLI and
    {!Report} have always printed. *)

type t =
  | Throughput of { graph : string; period : float }
      (** No periodic admissible schedule with the required period. *)
  | Processor_capacity of { proc : string; used : float; capacity : float }
      (** Allocated budgets plus overhead exceed the replenishment
          interval (constraint (4)). *)
  | Memory_capacity of { memory : string; used : int; capacity : int }
      (** Pre-reserved buffer footprint exceeds the memory. *)
  | Latency of { graph : string; latency : float; bound : float }
  | Buffer_bound of { buffer : string; capacity : int; bound : int }
      (** A rounded capacity exceeds the buffer's declared maximum. *)
  | Budget_range of { task : string; budget : float; replenishment : float }
      (** A budget outside (0, ̺]: the SRDF model is undefined. *)
  | Non_finite of { what : string; value : float }
      (** A NaN or infinite number where a finite one was required. *)

(** Short stable identifier of the violated constraint, e.g.
    ["throughput"] or ["proc-capacity"]. *)
val constraint_id : t -> string

(** The human-readable diagnostic line (byte-compatible with the
    historical string-list diagnostics). *)
val to_string : t -> string

val pp : Format.formatter -> t -> unit
