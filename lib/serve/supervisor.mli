(** Supervised pool of process-isolated solve workers.

    The supervisor owns [slots] disposable [budgetbuf worker]
    processes ({!Worker}), spawned under optional rlimit memory/CPU
    caps and replaced when they die.  A solve is one task frame down a
    worker's stdin and one reply frame back, with a reply budget of
    the task deadline (or a configured backstop) plus [grace_s]; a
    worker that blows the budget is SIGKILLed and reported as
    {!Reaped}, one that dies mid-solve as {!Crashed}.  Either way the
    server process survives and answers the request with a structured
    failure — crash containment is the whole point.

    Respawns after a crash back off exponentially with deterministic
    seeded jitter ({!Robust.Fault.det_float}); [breaker_threshold]
    consecutive crashes open a circuit breaker that answers
    {!Unavailable} until [breaker_cooldown_s] elapses, so a crash
    storm cannot turn the supervisor into a fork bomb.

    Thread-safe: any number of dispatcher lanes may call {!solve}
    concurrently; each acquired worker is used by one lane at a
    time. *)

type config = {
  slots : int;  (** worker processes kept at most *)
  exe : string;  (** budgetbuf binary to exec in worker mode *)
  rlimit_mem_mb : int option;  (** address-space cap (ulimit -v) *)
  rlimit_cpu_s : int option;  (** CPU-time cap (ulimit -t) *)
  grace_s : float;  (** reply budget past the task deadline *)
  no_deadline_timeout_s : float;  (** reply budget when the task has none *)
  hello_timeout_s : float;
  breaker_threshold : int;
  breaker_cooldown_s : float;
  backoff_base_s : float;
  backoff_cap_s : float;
  seed : int;  (** keys the deterministic respawn jitter *)
  obs : Obs.Ctx.t option;
  log : (string -> unit) option;
}

(** One slot, no rlimits, 0.5 s grace, breaker at 5 crashes / 5 s
    cooldown, 50 ms–1 s backoff, seed 0. *)
val default_config : exe:string -> config

type t

type counters = {
  spawned : int;
  crashed : int;  (** workers lost (crash, reap, failed spawn) *)
  reaped : int;  (** of which: killed for blowing the reply budget *)
  breaker_trips : int;
}

type outcome =
  | Done of Worker.reply
  | Crashed of string  (** worker died; payload is ["signal 9"]-style *)
  | Reaped  (** worker stuck past deadline + grace, SIGKILLed *)
  | Unavailable of string  (** breaker open or supervisor stopping *)

(** @raise Invalid_argument on [slots < 1] or [breaker_threshold < 1]. *)
val create : config -> t

(** [solve t task] runs one task on an isolated worker, blocking while
    every slot is busy.  Never raises on worker misbehaviour. *)
val solve : t -> Worker.task -> outcome

val counters : t -> counters

(** Close worker stdins (an idle worker exits 0 on EOF), give them a
    second, SIGKILL stragglers, reap everything. *)
val shutdown : t -> unit
