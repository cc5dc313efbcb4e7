(** The admission protocol: typed requests and replies and their line
    codecs, one {!Obs.Json} object per {!Wire} frame.

    One request line in, one reply line out, in order, per connection.
    The full grammar with examples lives in docs/serving.md; the
    summary:

    {v {"op":"admit","id":J,"config":TEXT[,"deadline_s":S][,"fault":SPEC][,"retry":true]}
       {"op":"release","id":J}
       {"op":"ping","v":3}
       {"op":"stats"}
       {"op":"shutdown"} v}

    Every reply carries a ["status"] field naming its constructor
    (["admitted"], ["rejected"], ["infeasible"], ["timed_out"],
    ["failed"], ["poisoned"], ["overloaded"], ["released"], ["ready"],
    ["stats"], ["error"], ["shutting_down"]).  A [failed] reply also
    names its {!cause}.  Replies never carry wall-clock fields — timing
    lives in the trace stream — so a scripted exchange is byte-stable
    (the cram suite relies on this; the one exception,
    [Overloaded.retry_after_s], is load-dependent by design and is the
    reason the CLI renders it without the number). *)

(** The protocol version this build speaks.  [Ping] requests and
    [Ready] replies both carry it (field ["v"]); the decoders turn a
    differing announced version into one clean
    ["protocol version mismatch"] error instead of letting the peer
    fail field by field.  A ping {e without} the field is accepted as a
    bare liveness probe. *)
val version : int

(** {2 The verdict of one solve}

    Shared by the [admitted] and [failed] replies, the worker pipe
    ({!Worker.reply}) and the memo cache ({!Cache}). *)

(** A certified mapping. *)
type solved = {
  mapping : string;  (** {!Taskgraph.Mapped_io} concrete syntax *)
  certificate : string;  (** {!Budgetbuf.Certify.summary} line *)
  objective : float;  (** continuous optimum of Objective (5) *)
  rounded_objective : float;  (** Objective (5) of the rounded mapping *)
}

(** Why a solve ended without a verdict on the instance. *)
type cause =
  | Solver of Budgetbuf.Mapping.failure
      (** labelled as {!Budgetbuf.Mapping.label} labels it; a refuted
          certificate is [Uncertifiable], an exception or a task a
          worker cannot run [Exception] *)
  | Worker_crashed  (** ["worker crashed"]: the isolated worker died *)
  | Unavailable  (** ["unavailable"]: the worker pool refused the solve *)
  | Handler
      (** ["handler"]: the server's request handler raised — the one
          cause {!Client.submit} re-issues *)

(** Every cause in label-table order, and the label of each (wire
    field ["cause"]). *)
val causes : cause list
val cause_name : cause -> string

(** Field codecs.  [solved_fields] writes ["mapping"], ["certificate"],
    ["objective"] and ["rounded_objective"]; [failure_fields] writes
    ["cause"] and ["reason"].  The readers name the first field missing
    or ill-typed, or an unknown cause. *)
val solved_fields : solved -> Obs.Json.obj
val solved_of_fields : Obs.Json.obj -> (solved, string) Stdlib.result
val failure_fields : cause -> string -> Obs.Json.obj

val failure_of_fields :
  Obs.Json.obj -> (cause * string, string) Stdlib.result

type request =
  | Admit of {
      id : string;  (** client-chosen job id, unique among live jobs *)
      config : string;  (** configuration text ({!Taskgraph.Parse}) *)
      deadline_s : float option;
          (** arrival-to-reply budget; the server's default applies
              when absent *)
      fault : string option;
          (** fault-injection spec ({!Robust.Fault} syntax) applied
              to this request's solve only *)
      retry : bool;
          (** marks a client re-issue after a lost reply: with
              [retry = true] the server answers [Admitted] for an id it
              already holds, provided the canonical instance matches —
              the admission is {e not} charged twice.  Without it a
              duplicate id is [Rejected], so accidental reuse still
              fails loudly. *)
    }
  | Release of { id : string }  (** free a live job's footprint *)
  | Ping  (** readiness probe for load balancers; never queued *)
  | Stats
  | Shutdown  (** ask the server to drain gracefully and exit *)

(** The server's lifecycle as seen by a load balancer: [Starting]
    before the listening loop runs, [Serving] while accepting work,
    [Draining] once shutdown began (control ops still answered, new
    work refused). *)
type readiness = Starting | Serving | Draining

val readiness_name : readiness -> string

(** Server-lifetime counters, returned by [Stats] and summarised on
    exit.  [live] and [queue] are instantaneous, the rest monotone. *)
type stats = {
  admitted : int;
  rejected : int;  (** solved fine but refused by admission control *)
  infeasible : int;
  timed_out : int;
  failed : int;  (** solver failures — every recovery rung exhausted *)
  poisoned : int;  (** quarantined instances answered without a solve *)
  shed : int;  (** overloaded replies *)
  refused : int;  (** malformed requests *)
  cache_hits : int;
  cache_misses : int;
  released : int;
  pings : int;  (** readiness probes answered *)
  live : int;  (** jobs currently admitted *)
  queue : int;  (** admission queue length *)
  worker_crashes : int;  (** isolated solve workers lost mid-solve *)
}

val zero_stats : stats

type response =
  | Admitted of {
      id : string;
      cache : [ `Hit | `Miss ];
      mapping : string;
      certificate : string;
      objective : float;
      rounded_objective : float;
          (** the {!solved} fields, flat ({!admitted} builds one) *)
      attempts : int;  (** recovery-ladder attempts; 1 = clean solve *)
    }
  | Rejected of { id : string; reason : string }
      (** admission control: duplicate id, conflicting resource
          declaration, or insufficient remaining capacity *)
  | Unsat of { id : string; reason : string }
      (** the instance itself is infeasible (cacheable verdict) *)
  | Late of { id : string; reason : string }
      (** the request's deadline expired — queued too long or solve
          timed out *)
  | Failed of { id : string; cause : cause; reason : string }
      (** no verdict on the instance: a solver failure after the whole
          recovery ladder, a refuted certificate, a worker crash or an
          isolated handler exception; [cause] says which *)
  | Poisoned of { id : string; reason : string }
      (** the instance's canonical key is quarantined: it crashed
          isolated workers past the poison threshold, so the server
          answers from the quarantine instead of risking another
          worker *)
  | Overloaded of {
      id : string;
      retry_after_s : float;
          (** load-based hint: recent mean solve time × queue depth *)
    }  (** shed by backpressure before entering the queue *)
  | Released of { id : string; found : bool }
  | Ready of { state : readiness }  (** reply to [Ping] *)
  | Stats_reply of stats
  | Refused of { reason : string }  (** malformed or unparsable request *)
  | Bye  (** acknowledgement of [Shutdown] *)

(** [admitted ~id ~cache ~attempts s] is the [Admitted] reply
    carrying [s]. *)
val admitted :
  id:string -> cache:[ `Hit | `Miss ] -> attempts:int -> solved -> response

(** [status_of_response r] is the stable ["status"] tag (also the
    [Request_done] trace label and the keyed metrics bucket). *)
val status_of_response : response -> string

(** Line codecs: no trailing newline; [Error] is a one-line reason
    suitable for a [Refused] reply.  A line that is not a flat JSON
    object fails with ["malformed request: "] or ["malformed reply: "]
    and the codec's reason. *)

val request_to_line : request -> string
val request_of_line : string -> (request, string) Stdlib.result
val response_to_line : response -> string
val response_of_line : string -> (response, string) Stdlib.result
