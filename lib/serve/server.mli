(** The admission-control solve server (docs/serving.md).

    [run] owns a Unix-domain listening socket and speaks the
    newline-delimited {!Protocol} on it: clients admit configuration
    instances, the server solves them on a {!Parallel.Pool}, checks the
    mapping against the shared resource capacities admitted so far, and
    replies with the mapping and its exact certificate — or with an
    explicit refusal.  Three robustness mechanisms shape the design:

    {ul
    {- {e Backpressure}: admit requests pass through a bounded
       {!Bounded} queue; when it is full the request is shed
       immediately with an [overloaded] reply carrying a load-based
       retry hint — the server never queues unbounded work and control
       requests ([release], [stats], [shutdown]) keep answering even
       under full load, because only solves queue.}
    {- {e Deadlines}: every admit carries (or inherits) an
       arrival-to-reply budget threaded through {!Durable.Deadline}
       into the interior-point iteration loop, so a pathological solve
       returns [timed_out] instead of hanging its socket.}
    {- {e Crash-safe memoisation}: settled verdicts are journaled
       through {!Cache} (fsync per entry); a restarted server replays
       the journal and answers repeated instances byte-identically
       without re-solving.}}

    Threading: the calling thread runs the accept/read/control loop; a
    single dispatcher systhread drains the queue in batches onto the
    domain pool; an optional watchdog systhread reaps solves stuck past
    their deadline.  Replies may be written from any of them,
    serialised per connection.

    Self-healing (docs/robustness.md): request handlers are isolated —
    one raising costs its request a [failed] reply, never the server; a
    job settles exactly once even when the watchdog and the real solve
    race; and with [reconcile] on, a connection that dies releases the
    admissions it owned. *)

type config = {
  socket_path : string;  (** Unix-domain socket path (created, unlinked on exit) *)
  queue_capacity : int;  (** admission-queue bound, ≥ 1 *)
  batch : int;  (** max jobs dispatched onto the pool at once, ≥ 1 *)
  domains : int;  (** solver pool width, ≥ 1 *)
  default_deadline_s : float option;
      (** deadline for admits that do not carry one; [None] = unlimited *)
  cache_path : string option;  (** memo-cache journal; [None] disables caching *)
  cache_max_entries : int option;
      (** bound the memo cache (FIFO eviction) and arm size-triggered
          journal compaction; [None] = unbounded, never compacts *)
  obs : Obs.Ctx.t option;  (** request/cache/shed trace events and metrics *)
  signals : bool;
      (** install SIGINT/SIGTERM handlers for graceful drain (the CLI
          sets this; in-process tests leave it off) *)
  halt_after_admits : int option;
      (** crash simulation for tests: after this many settled admit
          replies, stop {e abruptly} — no drain, queued work dropped
          without reply, no clean shutdown line.  The cache journal
          survives by construction. *)
  chaos : Chaos.t option;
      (** fault injector; fires on requests (torn replies, resets,
          stalls, handler exceptions) and journal records *)
  reconcile : bool;
      (** release the admissions of a connection that closes — a
          crashed client cannot leak capacity.  Off by default: the
          original contract lets admissions outlive their connection. *)
  watchdog_grace_s : float option;
      (** reap solves stuck this long {e past} their deadline: the
          client gets [timed_out] and the slot is reclaimed even if the
          solve never returns.  [None] disables the watchdog. *)
  isolate : int option;
      (** run solves in this many supervised worker {e processes}
          ({!Supervisor}): a crashing, hanging or OOMing solve kills a
          disposable worker, never the server.  [None] solves
          in-process (the original behaviour). *)
  rlimit_mem_mb : int option;
      (** address-space cap per worker (requires [isolate]) *)
  rlimit_cpu_s : int option;
      (** CPU-time cap per worker (requires [isolate]) *)
  poison_threshold : int;
      (** worker crashes attributed to one canonical instance before it
          is quarantined and answered [poisoned] without solving *)
  quarantine_path : string option;
      (** quarantine journal ({!Quarantine}); crash counts survive
          server restarts.  Requires [isolate]. *)
  worker_exe : string option;
      (** binary to exec in worker mode; [None] uses
          [Sys.executable_name] (right for the CLI; in-process tests
          must point at the budgetbuf binary explicitly) *)
  log : (string -> unit) option;  (** lifecycle lines ("listening on …") *)
}

(** [default_config ~socket_path] is a serving-ready configuration:
    queue 16, batch = domains = 1, no default deadline, no cache
    (unbounded when enabled), KKT [`Auto], no signals, no chaos, no
    reconcile, watchdog grace 1 s, no isolation (poison threshold 2
    once isolation is switched on). *)
val default_config : socket_path:string -> config

type stop_reason =
  | Shutdown_request  (** a client asked; exit 0 *)
  | Signalled of int  (** SIGINT/SIGTERM drain; exit 128+n *)
  | Halted  (** [halt_after_admits] fired (crash simulation) *)

(** [describe reason] is the stable summary label ("shutdown",
    "interrupted (signal N)", "halted"). *)
val describe : stop_reason -> string

(** [run config] serves until stopped; returns why it stopped and the
    final counters, or [Error msg] when setup fails (socket in use,
    foreign cache journal, bad parameters).  Always unlinks the socket
    and closes the cache journal on the way out. *)
val run : config -> (stop_reason * Protocol.stats, string) Stdlib.result
