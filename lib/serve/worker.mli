(** The isolated solve worker and both directions of its pipe
    protocol.

    A worker is a fresh [budgetbuf worker] process owned by a
    {!Supervisor} slot.  It announces itself with a hello frame
    carrying {!Protocol.version} (a stale binary fails the spawn, not
    a mid-solve decode), then answers one reply line per task line
    until its stdin reaches EOF.  A task whose [deadline_s] is zero or
    negative (its budget lapsed before dispatch) answers [late] like
    any expired solve; the worker lives on.  Process faults — [crash],
    [hang], [oom] ({!Robust.Fault.process}) — are executed {e here},
    inside the rlimit box the supervisor armed, never in the server
    process.

    Each frame is one {!Obs.Json} object on one {!Wire} line.  The
    grammar:

    {v worker → {"ev":"hello","v":3}
       server → {"id":J[,"fault":SPEC][,"deadline_s":S],"config":TEXT}
       worker → {"status":"solved","id":J,"mapping":M,"certificate":C,
                 "objective":F,"rounded_objective":F,"attempts":N,"solve_s":F}
              | {"status":"unsat"|"late","id":J,"reason":R}
              | {"status":"failed","id":J,"cause":C,"reason":R} v}

    The solved and failed fields are {!Protocol.solved_fields} and
    {!Protocol.failure_fields}, the codecs of the [admitted] and
    [failed] wire replies. *)

(** {2 Pipe protocol} *)

(** [hello_line ()] is the frame a worker writes on startup. *)
val hello_line : unit -> string

(** [parse_hello line] checks the announced protocol version; a clean
    one-line error otherwise.  The supervisor knows the worker's pid
    from the spawn itself. *)
val parse_hello : string -> (unit, string) Stdlib.result

type task = {
  task_id : string;
  task_config : string;  (** raw configuration text *)
  task_fault : string option;  (** fault spec, checked by {!parse} *)
  task_deadline_s : float option;
      (** remaining solve budget at dispatch; the supervisor reaps
          this much plus its grace *)
}

val task_line : task -> string
val parse_task : string -> (task, string) Stdlib.result

(** The verdict of one solve, the only thing a solve returns. *)
type reply =
  | Solved of {
      solved : Protocol.solved;
      attempts : int;  (** recovery-ladder attempts; 1 = clean solve *)
      solve_s : float;  (** wall-clock time of the solve *)
    }
  | Unsat of string  (** the instance is infeasible: the reason *)
  | Late of string  (** the deadline lapsed: the reason *)
  | Failed of { cause : Protocol.cause; reason : string }

(** [exception_failure reason] is [Failed] with cause [Exception]: a
    task that cannot run (a malformed frame, a configuration or fault
    spec that does not parse) or a solve that raised. *)
val exception_failure : string -> reply

val reply_line : id:string -> reply -> string

(** [parse_reply line] decodes a reply frame; a missing field, or a
    [failed] frame whose cause is missing or unknown, is an [Error]
    prefixed ["malformed worker reply: "]. *)
val parse_reply : string -> (reply, string) Stdlib.result

(** {2 The one solve path}

    Every admitted solve, in-process or in a worker, is {!parse} then
    {!solve}; the two paths differ only by the process boundary (and
    the process faults a worker executes between the steps). *)

(** [parse ~config ~fault] parses configuration text and an optional
    {!Robust.Fault} spec.  Errors are one line: [config line N: …], or
    the message of {!Robust.Fault.of_string} unchanged. *)
val parse :
  config:string ->
  fault:string option ->
  (Taskgraph.Config.t * Robust.Fault.plan option, string) Stdlib.result

(** [solve ?obs ~deadline cfg plan] runs {!Budgetbuf.Mapping.solve}
    under the deadline with the fault plan [plan] ([None]: the one
    [BUDGETBUF_FAULT] names), and classifies the result: an
    infeasibility verdict is [Unsat], a lapsed deadline [Late], a
    solver failure [Failed] with the failure's own cause, an exception
    [Failed] with cause [Exception], and a mapping whose exact
    certificate is refuted [Failed] with cause [Uncertifiable] (the
    reason is {!Budgetbuf.Certify.summary} of the refutation).  Only a
    certified mapping is [Solved], so only a certified mapping is ever
    admitted or cached. *)
val solve :
  ?obs:Obs.Ctx.t ->
  deadline:Durable.Deadline.t ->
  Taskgraph.Config.t ->
  Robust.Fault.plan option ->
  reply

(** {2 Entry point} *)

(** [main argv] runs the worker loop on stdin/stdout and returns the
    process exit code.  [argv] is the full [Sys.argv] as a list; the
    worker takes no flags, and any argument after ["worker"] is a usage
    error (exit 2).  Dispatched by the CLI before its normal command
    parsing, so the mode stays out of [--help]. *)
val main : string list -> int
