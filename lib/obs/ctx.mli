(** The observability context: what [?obs] threads through the stack.

    One context owns a {!Sink}, a monotone sequence counter and the
    aggregate metrics behind the CLI's [--metrics] table.  {!emit}
    folds an event into the metrics and — unless the sink is
    {!Sink.null} — stamps and forwards it; an absent context
    ([obs = None]) costs nothing at all, which is what keeps the
    instrumented hot paths overhead-free by default
    (docs/observability.md records the measured overheads). *)

type t

(** [make ?sink ()] builds a context over [sink] (default
    {!Sink.null}: metrics only, no trace). *)
val make : ?sink:Sink.t -> unit -> t

(** [sink t] is the sink the context was built over. *)
val sink : t -> Sink.t

(** [emit t event] updates the metrics and forwards the stamped event
    to the sink.  Thread-safe from any domain; sequence numbers are
    allocated atomically, but two domains' events may reach a file
    sink out of sequence order — readers sort by [seq] when order
    matters. *)
val emit : t -> Trace.event -> unit

(** [with_span obs name f] runs [f] inside a timed span: a
    [Span_open] before, a [Span_close] (with the {!Clock} elapsed
    time) after — emitted on every exit path.  [with_span None name f]
    is exactly [f ()]. *)
val with_span : t option -> string -> (unit -> 'a) -> 'a

(** [open_span obs name] emits the [Span_open] of [with_span] and
    returns the function that emits its [Span_close], for a span that
    does not wrap one call.  The caller closes it exactly once, on every
    exit path.  [open_span None name] is [ignore]. *)
val open_span : t option -> string -> unit -> unit

(** [report t] renders the metrics table, one line per populated
    section: solves and iterations, the recovery-rung histogram,
    injected faults, certificate verdicts, candidate verdicts, journal
    restores, pool dispatch/join counts, solve-time totals and
    per-phase wall-clock.  Keyed sections render in sorted key order
    and empty sections are omitted, so the table is deterministic up
    to the wall-clock lines (prefixed ["solve time"] / ["phase "], so
    goldens can filter them). *)
val report : t -> string list
