(** Simulator-in-the-loop buffer tightening.

    The paper's dataflow model is conservative: a mapping that admits
    a periodic admissible schedule with period µ is {e guaranteed} to
    simulate at a steady-state period ≤ µ, which means the analytic
    buffer capacities usually overshoot what the platform needs.
    [run] takes a certified analytic mapping and searches, per buffer,
    for the smallest capacity the discrete-event simulator
    ({!Tdm_sim.Sim}) still accepts — a dichotomy between the exact
    SRDF lower bound max(1, ι) and the analytic capacity, sound
    because feasibility is monotone in capacity (budget schedulers are
    temporally monotone).  Every probe overrides one buffer, and the
    token-cycle bound of that buffer ({!Tdm_sim.Sim.cycle_refutes})
    decides it first: a capacity the bound refutes is infeasible
    without a simulation.

    The caller keeps the analytic mapping and its exact certificate:
    the tightened capacities are simulation-backed, the analytic ones
    machine-checked — the certificate is the fallback story, not a
    property of the tightened point.  See docs/tightening.md. *)

(** Why a buffer's search did not finish. *)
type skip =
  | Timed_out  (** its own or the run's deadline lapsed mid-search *)
  | Not_run  (** abandoned to the global deadline or cancellation *)
  | Raised of string  (** the search raised; the exception's text *)
  | Repair_failed
      (** the repaired joint configuration failed its final check *)

(** [skip_label s] is ["timed out"], ["not run"], ["error: <text>"] or
    ["joint repair failed"], as the CLI and the sweep's [candidate]
    events print it. *)
val skip_label : skip -> string

type outcome = {
  buffer_id : int;  (** dense buffer id ({!Taskgraph.Config.buffer_id}) *)
  analytic : int;  (** capacity in the certified analytic mapping *)
  floor : int;  (** exact SRDF lower bound max(1, ι) *)
  tightened : int;  (** accepted capacity, [floor ≤ tightened ≤ analytic] *)
  probes : int;
      (** capacities this buffer's search tested, by the cycle bound
          or by a simulation (the journal's [p]) *)
  refuted : int;
      (** of [probes], the capacities the cycle bound refuted without
          a simulation; a resumed buffer recovers it by replaying its
          recorded search *)
  skipped : skip option;
      (** [Some skip] when the search did not finish and the buffer
          kept its analytic capacity; such buffers are not journaled,
          so a resume retries them *)
}

type t = {
  mapped : Taskgraph.Config.mapped;
      (** analytic budgets, tightened capacities *)
  outcomes : outcome list;  (** dense buffer-id order *)
  analytic_containers : int;  (** Σ analytic capacities *)
  tightened_containers : int;  (** Σ tightened capacities *)
  probes : int;
      (** total simulator runs, baseline, joint checks and repair
          included; probes the cycle bound refuted are not runs *)
  refuted : int;
      (** probes the cycle bound refuted, repair pass included *)
  repaired : bool;
      (** the independent per-buffer minima missed the target when
          combined, and the (equally deterministic) sequential repair
          pass produced the final capacities instead *)
  progress : Durable.Sweep.progress;
}

(** [run cfg mapped] tightens the buffer capacities of [mapped]
    (budgets are never touched).

    The per-buffer searches (phase 1) run on the {!Durable.Sweep}
    harness: [pool] fans them out, [journal] makes them resumable (one
    record per finished buffer; see docs/formats.md), [deadline] /
    [candidate_deadline] bound the whole run and each buffer's search
    (polled between probes), [cancel] stops between buffers, and [obs]
    receives [tighten_probe] (its [layer] names what decided the
    probe: ["cycle"] or ["sim"]), [tighten_accept]/[tighten_reject]
    plus the sweep's events; a buffer's candidate verdict is ["ok"] or its
    [skipped] reason.  [iterations] (default 64) is the
    simulation length of every probe; [bank] (default 1) is the
    banked-memory granule: the search only explores capacities that
    cross a bank boundary, i.e. multiples of [bank] clamped to the
    known-feasible upper bound.

    Results are bit-identical across pool sizes and across
    kill+resume: every phase-1 probe overrides exactly one buffer of
    the {e analytic} capacities, so no search depends on another's
    outcome; the joint verification and (rare) sequential repair pass
    depend only on phase-1 results.  The repair pass honours the same
    per-buffer [candidate_deadline] as phase 1, probes every accepted
    capacity against the true joint configuration (only the analytic
    capacity, feasible by invariant, is trusted unprobed), and its
    result is re-simulated once — on any disagreement the repaired
    buffers fall back to their analytic capacities
    ([skipped = Some "joint repair failed"]).

    @return [Error _] when the analytic mapping itself fails to
    simulate at its target — there is nothing sound to tighten
    against.
    @raise Invalid_argument if [bank < 1] or [iterations < 4]. *)
val run :
  ?pool:Parallel.Pool.t ->
  ?journal:Durable.Journal.t ->
  ?deadline:Durable.Deadline.t ->
  ?candidate_deadline:float ->
  ?cancel:(unit -> bool) ->
  ?obs:Obs.Ctx.t ->
  ?on_progress:(Durable.Sweep.progress -> unit) ->
  ?iterations:int ->
  ?bank:int ->
  Taskgraph.Config.t ->
  Taskgraph.Config.mapped ->
  (t, string) Stdlib.result
