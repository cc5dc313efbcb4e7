(** Durable candidate fan-out — the one harness behind every sweep:
    [Tradeoff.capacity_sweep] and [Pareto.frontier] (through their
    shared clone-and-solve driver, [Durability.solve_candidates]),
    [Dse.throughput_curve] and phase 1 of [Tighten.run].  A driver
    keeps only a candidate grid, a solve and a payload codec with its
    verdict labels — [Tradeoff] and [Pareto] only the grid; everything
    below is shared.

    Durability (docs/robustness.md): [run] evaluates candidates
    [0 .. n-1], restoring any found in the journal and journaling each
    new completion — including infeasible and failed verdicts, which
    are verdicts.  A candidate the codec withholds (a per-candidate
    timeout: a property of this run's deadline, not of the instance)
    is retried on resume.  The sweep deadline and [cancel] stop it
    cleanly between candidates; in-flight candidates are drained,
    never aborted, so the result is always well formed, merely
    partial.  Both deadlines are also polled inside each candidate's
    own work (the interior-point loop, the simulator probes), so one
    slow candidate stops promptly with a ["timed out"] verdict.

    Observability (docs/observability.md): with [obs], one
    {!Obs.Trace.Candidate} event per newly evaluated candidate, one
    {!Obs.Trace.Restore} event per slot when a journal is consulted,
    and the pool's dispatch/join events.  Restored candidates emit no
    [Candidate] event.

    Warm starts (docs/solver.md): the solver drivers seed their
    interior-point runs from a point that is a pure function of the
    candidate grid or of the candidate itself — never of a
    neighbour's result: [tradeoff] and [pareto] from one cold
    {e anchor} solve, each [dse] candidate from the previous probe of
    its own search.  So every candidate's trajectory, and hence
    every result, is bit-identical across pool sizes and journal
    resumes.  Rungs past the first of the recovery ladder, every
    candidate whose anchor failed, every dse bound solve and every
    first dse probe run cold. *)

(** How a sweep ended: of [total] candidates, [resumed] were restored
    from the journal, [solved] were newly evaluated, and [not_run] were
    abandoned to the deadline or cancellation
    ([total = resumed + solved + not_run]).  [discarded] counts the
    journal records of candidates in range that the decoder refused
    (a payload of an older grammar, say); their candidates are
    evaluated again. *)
type progress = {
  total : int;
  resumed : int;
  discarded : int;
  solved : int;
  not_run : int;
}

(** [candidate_deadline deadline budget] is the sweep [deadline]
    (default {!Deadline.none}) combined with a fresh budget of [budget]
    seconds starting now — what {!run} hands each candidate, and what a
    driver gives the shared solve it runs before the sweep.
    @raise Invalid_argument if [budget] is not a positive, finite
    number. *)
val candidate_deadline : Deadline.t option -> float option -> Deadline.t

(** [run ?pool ?journal ?obs ?deadline ?candidate_deadline ?cancel
    ?on_progress ~encode ~decode ~verdict ~failed ~n f] evaluates
    [f ~deadline i] for every candidate [i] not restored from
    [journal], in index order (concurrently on [pool] when given, with
    slot-deterministic results as per {!Parallel.Pool.map_result}).
    Slot [i] of the returned array is [None] when candidate [i] was
    abandoned; [on_progress] receives the split once the sweep ends.

    [f] receives {!candidate_deadline}[ deadline candidate_deadline],
    computed as the candidate starts.  An exception escaping [f]
    becomes [failed i e], which is reported and journaled like any
    other value — one bad candidate costs one slot, not the sweep.
    [verdict v] labels the [Candidate] event of each newly evaluated
    value.

    [encode v] is the journal payload of a completed candidate —
    [None] withholds the record (outcomes that are not final verdicts,
    such as a per-candidate timeout).  [decode i payload] restores
    candidate [i] from a journal record; [None] discards the record and
    re-evaluates.  When it discards any, the journal is rewritten
    ({!Journal.replace}) to the records it restored, so the next
    resume sees only live records.  Payloads must not contain
    newlines.  An exception from the journal's own I/O, [encode],
    [verdict] or the deadline computation is re-raised at the join.

    @raise Invalid_argument if [n < 0]. *)
val run :
  ?pool:Parallel.Pool.t ->
  ?journal:Journal.t ->
  ?obs:Obs.Ctx.t ->
  ?deadline:Deadline.t ->
  ?candidate_deadline:float ->
  ?cancel:(unit -> bool) ->
  ?on_progress:(progress -> unit) ->
  encode:('a -> string option) ->
  decode:(int -> string -> 'a option) ->
  verdict:('a -> string) ->
  failed:(int -> exn -> 'a) ->
  n:int ->
  (deadline:Deadline.t -> int -> 'a) ->
  'a option array * progress
