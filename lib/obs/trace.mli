(** The trace event vocabulary and its line codec.

    Every layer of the stack reports through this one variant: the
    interior-point solver (iteration residuals, presolve scaling), the
    recovery ladder (rung enter/exit, injected faults), the mapping
    flow (certificate verdicts), the durable sweeps (restore hits,
    candidate verdicts) and the domain pool (task dispatch/join).  The
    full grammar is documented in docs/observability.md. *)

type event =
  | Solve_start of { rows : int; cols : int }
      (** a cone solve begins, with the (pruned) problem dimensions *)
  | Solve_end of { status : string; iterations : int; time_s : float }
      (** the cone solve returned *)
  | Socp_iter of {
      iter : int;
      pres : float;  (** primal residual of the τ-scaled iterate *)
      dres : float;  (** dual residual *)
      gap : float;  (** complementarity gap *)
      step : float;  (** step length that produced this iterate (0 at iter 0) *)
    }  (** one interior-point iteration *)
  | Presolve of { range_before : float; range_after : float }
      (** Ruiz equilibration ran, with the dynamic range it removed *)
  | Rung_enter of { attempt : int; stage : string }
      (** the recovery ladder starts an attempt on [stage] *)
  | Rung_exit of {
      attempt : int;
      stage : string;
      status : string;
      fault : string option;
          (** the fault kind injected into this attempt, if any *)
    }  (** the attempt returned with [status] *)
  | Fault_injected of { kind : string; attempt : int }
      (** a fault plan fired (solver faults at rung entry, [bad_round]
          at the rounding step) — exactly one per fired fault *)
  | Kkt_factor of { backend : string; phase : string; n : int; nnz : int }
      (** a KKT factorisation event: [backend] is ["sparse"] or
          ["dense"], [phase] is ["symbolic"] (once per solve),
          ["numeric"] (once per iteration) or ["fallback"] (the sparse
          factorisation failed and the iteration reran dense); [n] is
          the system dimension and [nnz] the factor's nonzero count (0
          for a dense fallback). *)
  | Warm_start of { accepted : bool; reason : string }
      (** a warm-start point was offered to the solver: accepted (and
          pushed strictly inside the cone) or rejected for [reason]
          (dimension mismatch, non-finite entries) with a silent cold
          start.  Emitted only when a solve is given a warm point. *)
  | Certificate of { verdict : string }
      (** exact certification verdict: ["certified"] or ["refuted"] *)
  | Restore of { index : int; hit : bool }
      (** journal restore consulted for sweep slot [index] *)
  | Task_dispatch of { index : int }  (** a pool task starts running *)
  | Task_join of { index : int; ok : bool }
      (** a pool task finished; [ok] is false when it captured an
          exception *)
  | Candidate of { index : int; verdict : string }
      (** a sweep candidate finished: ["ok"], ["feasible"],
          ["infeasible"], ["skipped"] or ["timed out"] *)
  | Request_start of { op : string; id : string }
      (** the admission server parsed a request ([op] is ["admit"],
          ["release"], ["stats"] or ["shutdown"]; [id] is the
          client-chosen job id, empty for control requests) *)
  | Request_done of {
      op : string;
      id : string;
      status : string;
      queue_s : float;  (** time spent in the admission queue *)
      total_s : float;  (** arrival-to-reply wall clock *)
    }  (** the reply was written, with the reply's status tag *)
  | Cache_hit of { key : string }
      (** a canonical-instance memo-cache lookup hit; [key] is the
          8-hex CRC digest of the canonical instance text *)
  | Cache_miss of { key : string }  (** the lookup missed *)
  | Shed of { queue : int }
      (** an admit request was shed by backpressure: the bounded
          admission queue already held [queue] requests *)
  | Chaos_injected of { kind : string; site : string; ordinal : int }
      (** the chaos injector fired fault [kind] at decision [ordinal]
          of injection [site] (e.g. ["request"], ["journal"]) *)
  | Worker_spawn of { pid : int; slot : int }
      (** the supervisor started an isolated solve worker in [slot] *)
  | Worker_exit of { pid : int; reason : string; solves : int }
      (** a worker left the pool after [solves] completed solves;
          [reason] is ["eof"], ["exit N"] or ["signal N"] *)
  | Worker_reaped of { pid : int; after_s : float }
      (** the supervisor SIGKILLed a worker stuck [after_s] seconds
          past its request deadline plus grace *)
  | Quarantined of { key : string; crashes : int }
      (** an instance's canonical-key digest crossed the poison
          threshold after [crashes] worker crashes *)
  | Tighten_probe of {
      buffer : string;
      capacity : int;
      feasible : bool;
      layer : string;
    }
      (** the tightening dichotomy tested [buffer] at [capacity];
          [layer] names what decided it: ["cycle"] when the buffer's
          token-cycle bound ([Tdm_sim.Sim.cycle_refutes]) refuted
          the capacity without a simulation ([feasible] is then
          [false]), ["sim"] when the simulator ran once with the
          buffer overridden and [feasible] means the run completed
          with every graph's steady-state period within its
          threshold.  A trace line without [layer] decodes as
          ["sim"]. *)
  | Tighten_accept of { buffer : string; capacity : int; saved : int }
      (** the dichotomy settled on [capacity] for [buffer], [saved]
          containers below the analytic bound *)
  | Tighten_reject of { buffer : string; capacity : int }
      (** the dichotomy could not improve on the analytic [capacity]
          (the dataflow bound was already tight for this buffer) *)
  | Span_open of { name : string }  (** a timed phase begins *)
  | Span_close of { name : string; elapsed_s : float }
      (** the phase ends, with its duration on the trace clock *)

(** A stamped event: [seq] is a process-wide monotone sequence number
    (per context) and [time] the {!Clock} reading at emission. *)
type t = { seq : int; time : float; event : event }

(** [event_name e] is the stable snake_case tag (the ["ev"] field). *)
val event_name : event -> string

(** [to_json t] renders one flat JSON object, no trailing newline.
    Finite floats use ["%.17g"] (bit-exact round trip); non-finite
    values are quoted (["nan"], ["inf"], ["-inf"]). *)
val to_json : t -> string

(** [of_json_line line] decodes what {!to_json} wrote; [None] on any
    damage (the caller treats the line as torn). *)
val of_json_line : string -> t option

(** [summary t] is the one-line human rendering used by
    [budgetbuf trace cat]: sequence number, event name and fields —
    {e without} the timestamp, the one nondeterministic column. *)
val summary : t -> string
