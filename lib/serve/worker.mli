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

    {v worker → {"ev":"hello","v":2,"pid":P}
       server → {"id":J[,"fault":SPEC][,"deadline_s":S],"config":TEXT}
       worker → {"status":"solved","id":J,"mapping":M,"certificate":C,
                 "objective":F,"rounded_objective":F,"attempts":N,"solve_s":F}
              | {"status":"unsat"|"late"|"failed","id":J,"reason":R} v} *)

(** {2 Pipe protocol} *)

(** [hello_line ()] is the frame a worker writes on startup. *)
val hello_line : unit -> string

(** [parse_hello line] checks the announced protocol version and
    returns the worker's pid; a clean one-line error otherwise. *)
val parse_hello : string -> (int, string) Stdlib.result

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

type reply =
  | R_solved of {
      mapping : string;
      certificate : string;
      objective : float;
      rounded_objective : float;
      attempts : int;
      solve_s : float;
    }
  | R_unsat of string
  | R_late of string
  | R_failed of string

val reply_line : id:string -> reply -> string
val parse_reply : string -> (reply, string) Stdlib.result

(** [write_line fd line] writes [line ^ "\n"] fully.  Raises
    [Unix.Unix_error] on a broken pipe — callers treat that as the
    peer's death. *)
val write_line : Unix.file_descr -> string -> unit

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
    infeasibility verdict is [R_unsat], a lapsed deadline [R_late], a
    solver failure, an exception or a mapping whose exact certificate
    is refuted [R_failed] (the reason is {!Budgetbuf.Certify.summary}
    of the refutation).  Only a certified mapping is [R_solved], so
    only a certified mapping is ever admitted or cached. *)
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
