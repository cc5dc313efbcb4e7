(** Deterministic fault-injection plans.

    A plan describes which solver attempts of the recovery ladder
    ([Budgetbuf.Mapping]) are
    sabotaged and how, so tests (and the [@runtest-fault] suite) can
    exercise every recovery rung without fishing for pathological
    instances.  Plans are plain data parsed from a spec string in the
    {!Spec} grammar (shared with [Serve.Chaos]), over this kind and key
    table:

    {v KIND[,iter=N][,attempts=N|all][,only=I] v}

    where [KIND] is [stall], [nan], [slow], [dense_kkt], [bad_round],
    [crash], [hang] or [oom], [iter] is
    the interior-point iteration at which the fault fires (default 0),
    [attempts] is how many leading ladder attempts are faulted
    (default 1; [all] faults every attempt {e including} the simplex
    fallback, making the solve fail permanently), and [only] restricts
    the plan to the [I]-th candidate (0-based) of a sweep.

    [bad_round] is different in nature: it leaves the solver alone and
    instead corrupts the solution {e after} rounding (one budget down a
    granule), so the exact-certification refutation path can be pinned
    deterministically.

    The CLI accepts a spec through [--fault]; the test suites through
    the [BUDGETBUF_FAULT] environment variable. *)

(** Process-level faults, executed by the isolated solve worker rather
    than the in-process solver: [Crash] SIGKILLs the worker mid-solve,
    [Hang] livelocks it until the supervisor reaps it past the deadline
    grace, [Oom] allocates until the rlimit (or the 1 GiB safety cap)
    kills it.  In-process solves treat these as no-ops. *)
type process = Crash | Hang | Oom

type kind =
  | Solver of Conic.Socp.fault  (** injected into the IPM iteration *)
  | Bad_round  (** corrupts the rounded solution, not the solver *)
  | Process of process  (** executed by the isolated solve worker *)

type plan = {
  kind : kind;
  iteration : int;  (** IPM iteration at which the fault fires *)
  attempts : int;
      (** number of leading ladder attempts faulted; [max_int] ("all")
          also disables the simplex fallback *)
  only : int option;  (** restrict to one 0-based sweep candidate *)
}

(** [stall_first] is the simplest plan: [Stall] at iteration 0 of the
    first attempt only. *)
val stall_first : plan

(** [kind_name kind] is the spec keyword of [kind] (["stall"], ["nan"],
    ["slow"], ["dense_kkt"], ["bad_round"], ["crash"], ["hang"],
    ["oom"]) — also the label trace events carry. *)
val kind_name : kind -> string

(** [of_string spec] parses the spec grammar above; errors as in
    {!Spec}, prefixed ["fault spec: "]. *)
val of_string : string -> (plan, string) Stdlib.result

(** [to_string plan] prints a spec that parses back to [plan]. *)
val to_string : plan -> string

(** [of_env ()] reads [BUDGETBUF_FAULT]: [None] when unset or blank.
    @raise Invalid_argument on a malformed spec. *)
val of_env : unit -> plan option

(** [for_candidate plan ~index] specialises a plan to sweep candidate
    [index]: a plan with [only = Some i] applies (with the restriction
    dropped) only when [i = index]; a plan without [only] applies to
    every candidate. *)
val for_candidate : plan option -> index:int -> plan option

(** [covers plan ~attempt] is true when the 1-based ladder [attempt] is
    faulted under [plan].  Always false for [Bad_round] and [Process]
    plans, which do not touch the solver. *)
val covers : plan option -> attempt:int -> bool

(** [process_kind plan] is the process-level fault requested by [plan],
    if any.  Only the isolated solve worker acts on these; everywhere
    else a [Process] plan is inert. *)
val process_kind : plan option -> process option

(** [corrupts_rounding plan] is true when [plan] asks for the rounded
    solution to be corrupted ([Bad_round]). *)
val corrupts_rounding : plan option -> bool

(** [inject plan ~attempt] is the {!Conic.Socp.params.inject} hook for
    the given 1-based ladder attempt — [None] when the attempt is not
    covered by the plan. *)
val inject : plan option -> attempt:int -> (int -> Conic.Socp.fault option) option

(** {2 Deterministic schedule randomness}

    Stateless splitmix64-style mixing over a [(seed, salt, ordinal)]
    triple.  Chaos schedules ({!Serve.Chaos}) and client backoff jitter
    draw from these so that a given seed replays the exact same
    decision sequence on every run and platform — no hidden global
    state, no wall clock. *)

(** [det_int ~seed ~salt ~bound n] is a deterministic pseudo-random
    integer in [\[0, bound)] for ordinal [n] of the stream named
    [salt].  @raise Invalid_argument when [bound <= 0]. *)
val det_int : seed:int -> salt:string -> bound:int -> int -> int

(** [det_float ~seed ~salt n] is a deterministic pseudo-random float in
    [\[0, 1)] for ordinal [n] of the stream named [salt]. *)
val det_float : seed:int -> salt:string -> int -> float
