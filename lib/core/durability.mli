(** Glue between the sweep drivers and {!Durable}: the one
    clone-and-solve driver behind {!Tradeoff} and {!Pareto}, its
    journal codec, the warm anchor that seeds it, and the token codec
    conventions every journal payload shares ({!Dse}, [Tighten], the
    serve cache).

    Payload grammar convention (see docs/formats.md): payloads are
    single lines of whitespace-separated tokens; floats are rendered as
    C99 hex literals ([%h], bit-exact round-trip), free-form strings as
    OCaml-quoted literals ([%S], whitespace-safe). *)

(** [warm_anchor ?deadline cfg] runs one cold solve of [cfg]'s SOCP,
    polling [deadline], and returns its primal/dual point as a
    warm-start seed, or [None] if the solve did not reach [Optimal] (or
    raised).  It runs without observability, fault injection or a warm
    point: the anchor is bookkeeping, not a sweep candidate.
    {!solve_candidates} seeds {e every} candidate from this one anchor
    rather than chaining neighbours, so the seed — and therefore every
    candidate's iteration trajectory — is independent of solve order:
    bit-identical across [--jobs] levels and across journal-restored
    resumes.  {!Dse} chains seeds inside each candidate instead
    ({!Dse.min_period_scale}). *)
val warm_anchor :
  ?deadline:Durable.Deadline.t -> Taskgraph.Config.t -> Conic.Socp.warm option

(** [solve_candidates ?fault ?pool ?deadline ?candidate_deadline
    ?journal ?cancel ?obs ?on_progress cfg ~n ~candidate] runs
    {!Mapping.solve} once on each configuration [candidate i],
    [0 <= i < n] — a private clone of [cfg] that differs from it in
    bounds or weights only, so [cfg]'s tasks and buffers address it —
    under {!Durable.Sweep.run}, and returns slot [i]'s result ([None]
    when the candidate was abandoned to the deadline or cancellation).

    - Warm starts: one {!warm_anchor} solve of [candidate 0] seeds every
      candidate.
    - [fault] is read as by {!Mapping.solve}, once per sweep, and
      candidate [i] gets {!Robust.Fault.for_candidate} of it: a plan
      restricted with [only=I] applies to the 0-based [I]-th candidate.
    - A candidate that raises becomes {!Mapping.of_exn} of it.
    - Candidate verdicts: ["ok"], ["infeasible"], ["skipped"] (a
      solver failure) or ["timed out"].
    - Journal payload ({!encode_outcome}): the objectives, continuous
      values and rounded mapping of a solved candidate, the message of
      an infeasibility verdict, or a solver failure's cause and
      detail; a timed-out candidate is not
      journaled.  A restored result carries those bits plus a
      {e freshly recomputed} exact certificate — the decoder
      re-certifies the restored mapping against [candidate i] (the CRC
      guards the bits, the certifier guards the meaning) — but an
      empty [recovery] trace, zeroed [stats] and no warm point: the
      solve did not run again. *)
val solve_candidates :
  ?fault:Robust.Fault.plan option ->
  ?pool:Parallel.Pool.t ->
  ?deadline:Durable.Deadline.t ->
  ?candidate_deadline:float ->
  ?journal:Durable.Journal.t ->
  ?cancel:(unit -> bool) ->
  ?obs:Obs.Ctx.t ->
  ?on_progress:(Durable.Sweep.progress -> unit) ->
  Taskgraph.Config.t ->
  n:int ->
  candidate:(int -> Taskgraph.Config.t) ->
  (Mapping.result, Mapping.error) Stdlib.result option array

(** The journal codec of {!solve_candidates}: [encode_outcome cfg o]
    is [None] for [Timed_out]; [decode_outcome cfg ~candidate p]
    re-certifies a restored mapping against [candidate], and is [None]
    for a payload it refuses, such as a failure of no known cause. *)
val encode_outcome :
  Taskgraph.Config.t -> (Mapping.result, Mapping.error) result -> string option

val decode_outcome :
  Taskgraph.Config.t -> candidate:Taskgraph.Config.t -> string ->
  (Mapping.result, Mapping.error) result option

(** [float_to_token f] renders [f] as a hex float literal. *)
val float_to_token : float -> string

(** Token scanners over a [Scanf] buffer; all raise
    [Scanf.Scan_failure] or [Failure] on malformed input. *)

val scan_token : Scanf.Scanning.in_channel -> string
val scan_float : Scanf.Scanning.in_channel -> float
val scan_int : Scanf.Scanning.in_channel -> int
val scan_quoted : Scanf.Scanning.in_channel -> string
