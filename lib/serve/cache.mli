(** The canonical-instance memo cache and its crash-safe journal.

    Two admit requests for the same {e semantic} instance must not
    solve twice — and must keep answering from cache across a server
    crash.  The cache keys on {!canonical_key}, a normal form of the
    configuration that is invariant under the presentation freedoms of
    the concrete syntax (declaration order of every entity class,
    decimal float spellings) but sensitive to every semantic field:
    any change to a rate, capacity, weight or the granularity produces
    a different key (pinned by the qcheck suite in test_serve.ml).

    Persistence rides the CRC-framed {!Durable.Journal}: one fsynced
    line per cached verdict, so after [kill -9] at most an in-flight
    line is lost and {!open_} replays the rest (docs/serving.md
    documents the payload grammar).  Only settled verdicts are cached —
    a solved mapping with its exact certificate, or primal
    infeasibility.  Timeouts and solver failures are circumstances of
    the attempt, not facts about the instance, and are never
    journaled. *)

type outcome =
  | Solved of {
      mapping : string;  (** {!Taskgraph.Mapped_io} concrete syntax *)
      certificate : string;  (** {!Budgetbuf.Certify.summary} line *)
      objective : float;
      rounded_objective : float;
    }
  | Unsat of { reason : string }

type t

(** [canonical_key cfg] renders the normal form: every entity class
    sorted by name, floats as C99 hex literals (bit-exact, immune to
    decimal re-spelling), names [%S]-quoted. *)
val canonical_key : Taskgraph.Config.t -> string

(** [digest key] is the 8-hex CRC-32 digest of a canonical key — the
    short label used by trace events and log lines.  Lookups always
    compare full keys, never digests, so a CRC collision costs nothing
    but a misleading label. *)
val digest : string -> string

(** Housekeeping counters for the server's stats and logs.  [entries] and
    [journal_lines] are instantaneous ([journal_lines] counts entry
    lines on disk, live or dead); the rest are monotone since
    {!open_}. *)
type stats = {
  entries : int;
  journal_lines : int;
  total_lines : int;  (** entry lines ever appended, surviving or not *)
  compactions : int;
  quarantined : int;  (** damaged lines moved to the sidecar at open *)
  io_errors : int;  (** journal writes that failed (verdict kept in memory) *)
}

(** [open_ path] opens (or creates) the cache journal at [path] and
    replays its entries.  [Error msg] when the file exists but is not a
    cache journal (foreign fingerprint, damaged header).

    Damaged {e interior} journal lines are not fatal and do not drop
    the entries after them: each is appended raw to the
    [<path>.quarantine] sidecar and the journal is compacted to a
    clean copy (atomic rename), so a flipped byte costs exactly the
    verdicts it touched.

    [?max_entries] bounds the in-memory table with FIFO eviction and
    arms size-triggered journal compaction: once at least half the
    file is dead lines (and at least 4 of them), the live entries are
    rewritten to a fresh journal via {!Durable.Journal.replace}.
    Without it the cache is unbounded and never compacts (the
    pre-existing behaviour).

    [?chaos] is the per-record I/O fault hook
    ({!Chaos.journal_hook}): failed writes count in [io_errors] and
    degrade durability, never service. *)
val open_ :
  ?max_entries:int ->
  ?chaos:(unit -> Durable.Journal.io_fault) ->
  string ->
  (t, string) Stdlib.result

(** [find t ~key] looks up a canonical key.  Thread-safe. *)
val find : t -> key:string -> outcome option

(** [store t ~key outcome] records a settled verdict: inserts into the
    in-memory table and durably appends one journal line (fsync before
    returning).  Idempotent — re-storing a present key is a no-op, so
    concurrent solvers of the same instance cannot double-journal.
    Thread-safe. *)
val store : t -> key:string -> outcome -> unit

(** [size t] is the number of cached instances. *)
val size : t -> int

(** [stats t] snapshots the housekeeping counters.  Thread-safe. *)
val stats : t -> stats

(** [close t] closes the journal.  Idempotent. *)
val close : t -> unit
