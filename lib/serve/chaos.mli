(** Deterministic, schedule-driven chaos injection for the serve
    stack — {!Robust.Fault}'s sibling at the I/O and process boundary.

    A chaos spec — the {!Robust.Spec} grammar of fault plans, over
    this kind and key table —

    {v KIND[,n=N][,seed=S] v}

    (bare integers are positional shorthand for [n] then [seed]) names
    a fault kind — [torn] (replies written one byte per syscall),
    [reset] (connection dropped without a reply), [stall] (handler
    naps), [exn] (handler raises), [fsync] (journal record fails with
    EIO), [corrupt] (journal record lands with a flipped byte), or
    [all] (each firing picks among the kinds its site can express) —
    and fires it on roughly one in [N] operations (default one in 4).

    Determinism contract: decisions are keyed on {e semantic ordinals}
    (the n-th parsed request at site ["request"], the n-th journal
    record at site ["journal"]) drawn through
    {!Robust.Fault.det_int}, never on syscall counts, scheduling or
    wall clock.  Same seed and same per-site operation sequences ⇒
    byte-identical injection {!log}.  Every firing is also emitted as
    a [Chaos_injected] trace event.

    The CLI accepts a spec through [--chaos]; the test suites through
    the [BUDGETBUF_CHAOS] environment variable. *)

type kind = Torn | Reset | Stall | Exn | Fsync | Corrupt | Mix

(** [kind_name k] is the spec keyword ([Mix] prints ["all"]) — also
    the label trace events and {!log} entries carry. *)
val kind_name : kind -> string

type spec = { skind : kind; every : int; seed : int }

(** [of_string s] parses a spec; errors as in {!Robust.Spec},
    prefixed ["chaos spec: "]. *)
val of_string : string -> (spec, string) Stdlib.result

(** [to_string spec] prints a spec that parses back to [spec]. *)
val to_string : spec -> string

(** [of_env ()] reads [BUDGETBUF_CHAOS]: [None] when unset or blank.
    @raise Invalid_argument on a malformed spec. *)
val of_env : unit -> spec option

(** A live injector: per-site ordinal counters plus the firing log.
    Thread-safe. *)
type t

val create : ?obs:Obs.Ctx.t -> spec -> t
val spec : t -> spec

(** What the server should do to the request it just parsed. *)
type request_action =
  | Pass
  | Torn_reply  (** write this connection's replies one byte at a time *)
  | Stall_handler  (** sleep briefly before processing *)
  | Drop_conn  (** process the request but drop the connection — the
                   reply is lost, exercising client re-issue *)
  | Raise_exn  (** raise inside the handler, exercising isolation *)

(** [on_request t] draws the ["request"]-site decision for the next
    parsed request ([Pass] when [t] is [None]). *)
val on_request : t option -> request_action

(** [journal_hook t] is the per-record fault hook to pass to the memo
    cache (site ["journal"]); [None] when [t] is. *)
val journal_hook : t option -> (unit -> Durable.Journal.io_fault) option

(** [log t] renders every firing so far as ["site#ordinal:kind"],
    sorted by site then ordinal — the campaign's replayable
    fingerprint. *)
val log : t -> string list
