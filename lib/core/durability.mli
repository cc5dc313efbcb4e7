(** Glue between the sweep drivers and {!Durable}: deadline-aware
    solver parameters and the token codec conventions shared by the
    journal payload encoders of {!Dse}, {!Tradeoff} and {!Pareto}.

    Payload grammar convention (see docs/formats.md): payloads are
    single lines of whitespace-separated tokens; floats are rendered as
    C99 hex literals ([%h], bit-exact round-trip), free-form strings as
    OCaml-quoted literals ([%S], whitespace-safe). *)

(** [params ?deadline ?obs ?warm p] is [p] (default
    {!Conic.Socp.default_params}) with each given hook installed:
    [deadline] polled inside the interior-point loop (see
    {!Durable.Deadline.check}; {!Durable.Deadline.none} installs
    nothing), [obs] as the context the solver, the recovery ladder and
    {!Mapping} emit into, and [warm] as the warm-start point.  Absent
    hooks keep [p]'s own; with none of the three, [p] passes through
    untouched, so an unlimited, unobserved, cold solve keeps a
    hook-free iteration loop. *)
val params :
  ?deadline:Durable.Deadline.t ->
  ?obs:Obs.Ctx.t ->
  ?warm:Conic.Socp.warm ->
  Conic.Socp.params option ->
  Conic.Socp.params option

(** [warm_anchor ?deadline cfg] runs one cold solve of [cfg]'s SOCP,
    polling [deadline] as {!params} installs it, and returns its
    primal/dual point as a warm-start seed, or [None] if the solve did
    not reach [Optimal] (or raised).  It runs without observability,
    fault injection or a warm point: the anchor is bookkeeping, not a
    sweep candidate.
    {!Tradeoff} and {!Pareto} seed {e every} candidate from this one
    anchor rather than chaining neighbours, so the seed — and
    therefore every candidate's iteration trajectory — is independent
    of solve order: bit-identical across [--jobs] levels and across
    journal-restored resumes.  {!Dse} chains seeds inside each
    candidate instead ({!Dse.min_period_scale}). *)
val warm_anchor :
  ?deadline:Durable.Deadline.t -> Taskgraph.Config.t -> Conic.Socp.warm option

(** [obs_of params obs] is the effective context of a call taking both
    [?obs] and [?params]: an explicit [obs] wins, else the one already
    riding in [params]. *)
val obs_of : Conic.Socp.params option -> Obs.Ctx.t option -> Obs.Ctx.t option

(** [float_to_token f] renders [f] as a hex float literal. *)
val float_to_token : float -> string

(** Token scanners over a [Scanf] buffer; all raise
    [Scanf.Scan_failure] or [Failure] on malformed input. *)

val scan_token : Scanf.Scanning.in_channel -> string
val scan_float : Scanf.Scanning.in_channel -> float
val scan_int : Scanf.Scanning.in_channel -> int
val scan_quoted : Scanf.Scanning.in_channel -> string
val expect_token : Scanf.Scanning.in_channel -> string -> unit
