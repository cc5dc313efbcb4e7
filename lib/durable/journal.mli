(** Append-only, crash-safe sweep journal.

    A journal records one line per {e completed} sweep candidate so a
    killed sweep can resume without re-solving finished work.  The
    format (docs/formats.md) is line-oriented text; every line carries
    a CRC-32 of its body and is written with a single [write] followed
    by [fsync], so after a crash at most the final line is torn —
    {!resume} silently truncates it and the candidate it described is
    simply re-solved.

    The header pins a {e fingerprint} of the sweep setup (configuration
    text, sweep kind, grid, fault plan — see {!fingerprint}); resuming
    with a different fingerprint is refused rather than silently mixing
    two sweeps' answers. *)

type t

(** One journal record: candidate [index] (0-based position in the
    sweep grid) completed with [payload] (an opaque, driver-defined
    encoding of its outcome). *)
type entry = { index : int; payload : string }

(** A per-record I/O fault drawn by an injected chaos hook: [`Fail]
    makes {!record} raise [Unix.Unix_error (EIO, _, _)] without
    writing; [`Corrupt] writes the line with one body byte flipped so
    its CRC no longer matches (a well-terminated but damaged line). *)
type io_fault = [ `Pass | `Fail | `Corrupt ]

(** [fingerprint parts] hashes an ordered list of setup strings into
    the 8-hex-digit fingerprint stored in the header.  Parts are
    length-prefixed before hashing, so the concatenation is
    unambiguous. *)
val fingerprint : string list -> string

(** [resume ~fingerprint path] opens [path] for journaling: a missing
    file is created with a fresh header; an existing file is loaded,
    its torn or corrupt tail truncated away, and its entries returned
    through {!entries}.  [Error msg] (a one-line human-readable reason)
    when the file is not a journal, its header is damaged, or its
    fingerprint differs from [fingerprint].

    [~salvage:true] (default [false]) switches damaged-line handling
    from truncate-at-first-damage to quarantine-and-continue: each
    damaged {e terminated} interior line is appended raw to the
    [<path>.quarantine] sidecar (fsync'd; count in {!salvaged}), the
    valid CRC'd entries beyond it are kept, and the file is compacted
    to a clean copy via an atomic tmp+rename.  An unterminated tail
    chunk is still silently truncated in either mode.  A stale [<path>.tmp] left by a crash mid-compaction is
    removed on open.

    [?chaos] installs a per-record fault hook consulted by {!record}
    (one draw per call) — the deterministic injection point used by
    the serve-layer chaos campaigns. *)
val resume :
  ?salvage:bool ->
  ?chaos:(unit -> io_fault) ->
  fingerprint:string ->
  string ->
  (t, string) Stdlib.result

(** [entries t] are the records loaded by {!resume}, in file order
    (empty for a fresh journal).  Records appended by {!record} after
    opening are not reflected. *)
val entries : t -> entry list

(** [salvaged t] is the number of damaged lines {!resume} moved to the
    sidecar (0 without [~salvage:true]). *)
val salvaged : t -> int

(** [record t ~index ~payload] durably appends one completed-candidate
    line: the call returns only after [fsync].  Thread-safe.
    @raise Invalid_argument if [index < 0], [payload] contains a
    newline, or the journal is closed. *)
val record : t -> index:int -> payload:string -> unit

(** [replace t ~entries] atomically rewrites the whole journal to hold
    exactly [entries] (fresh header and CRCs): the new content is
    written to [<path>.tmp], fsync'd, and renamed over the journal, so
    a crash at any point leaves either the old or the new file
    complete — never a hybrid.  This is the compaction primitive: the
    caller passes the live entries and the dead ones vanish.
    Thread-safe; subsequent {!record} calls append to the new file.
    @raise Invalid_argument if the journal is closed. *)
val replace : t -> entries:entry list -> unit

(** [path t] is the file the journal writes to. *)
val path : t -> string

(** [close t] closes the file descriptor.  Idempotent. *)
val close : t -> unit
