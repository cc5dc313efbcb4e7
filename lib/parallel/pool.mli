(** A fixed-size domain pool for embarrassingly parallel solve fan-out.

    Every capacity point of a throughput curve, every Pareto candidate
    and every table of the experiment harness is an independent cone
    solve; this pool runs such batches on OCaml 5 [Domain]s while
    keeping the results {e deterministic}: [map] stores each result in
    the slot of its input, so the output list is bit-identical to the
    sequential [List.map] regardless of how the scheduler interleaves
    the work.

    Concurrency model: [create ~domains] spawns [domains - 1] worker
    domains; the domain calling [map] also drains the shared queue
    while it waits, so a pool with [~domains:1] spawns nothing and runs
    every task on the caller in submission order — exactly the
    sequential path.  Caller participation also makes nested [map]
    calls (a pooled experiment that itself sweeps a curve on the same
    pool) deadlock-free: whoever waits, works.

    Tasks must not block on anything owned by another task.  The
    functions handed to [map] are expected to be reentrant — the whole
    solver stack ([Conic], [Linalg], [Budgetbuf.Mapping]) allocates its
    scratch per call and satisfies this; see docs/solver.md. *)

type t

(** [default_domains ()] is the pool width used when the caller does
    not specify one: the [BUDGETBUF_JOBS] environment variable when set
    and non-blank (a positive integer; anything else raises
    [Invalid_argument]), otherwise
    [Domain.recommended_domain_count ()]. *)
val default_domains : unit -> int

(** [create ~domains] spawns a pool of [domains] lanes ([domains - 1]
    worker domains plus the submitting caller).
    @raise Invalid_argument if [domains < 1]. *)
val create : domains:int -> t

(** [domains t] is the lane count the pool was created with. *)
val domains : t -> int

(** [map t f xs] applies [f] to every element of [xs] on the pool and
    returns the results in input order.  Exceptions raised by [f] are
    captured per task; once every task has finished, the exception of
    the {e earliest} failed input (deterministic) is re-raised with its
    backtrace.  A failed task never wedges the pool: the remaining
    tasks still run and the pool stays usable afterwards.

    Note the fail-fast join discards the successful results when it
    re-raises — after the exception there is no way to recover the
    outcomes of the tasks that did finish.  Batches whose items may
    legitimately fail (sweeps over solver candidates, for instance)
    should use {!map_result} and decide per item.

    [obs] emits one [Task_dispatch] event when a task starts running
    and one [Task_join] when it finishes (with [ok = false] when it
    captured an exception); cancel-short-circuited tasks emit
    neither.  Events may arrive from any lane. *)
val map : ?obs:Obs.Ctx.t -> t -> ('a -> 'b) -> 'a list -> 'b list

(** Outcome recorded for an input whose task was cancelled before it
    started (see {!map_result}'s [?cancel]).  Never raised by the pool
    itself — it only ever appears inside an [Error]. *)
exception Cancelled

(** [map_result ?cancel t f xs] is {!map} with per-item outcomes
    instead of a fail-fast join: every element yields [Ok (f x)] or
    [Error e] in input order, so one failing item cannot discard its
    siblings' results.  Determinism matches [map]: outcomes land in the
    slot of their input regardless of scheduling.

    [cancel] enables cooperative cancellation: it is polled once per
    task, immediately before the task would start.  Once it returns
    true, tasks not yet started record [Error Cancelled] without
    running [f], while tasks already in flight are drained to
    completion and keep their real outcome — the join still returns one
    well-formed result per input and the pool remains usable.  [cancel]
    is called concurrently from every lane, so it must be thread-safe
    and must not raise; reading a flag or polling a deadline both
    qualify.  [obs] is as in {!map}. *)
val map_result :
  ?cancel:(unit -> bool) -> ?obs:Obs.Ctx.t -> t -> ('a -> 'b) -> 'a list ->
  ('b, exn) Stdlib.result list

(** [fini t] shuts the pool down and joins the worker domains.
    Idempotent.  Calling [map] afterwards raises [Invalid_argument]. *)
val fini : t -> unit

(** [with_pool ~domains f] runs [f] on a fresh pool and finalises it on
    every exit path. *)
val with_pool : domains:int -> (t -> 'a) -> 'a
