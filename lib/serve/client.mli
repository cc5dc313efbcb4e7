(** A blocking client for the admission protocol — what the
    [budgetbuf request] subcommand, the benchmark's admit workloads
    and the in-process tests speak through.

    One request, one reply, in order.  A connection may carry any
    number of round trips; the server answers control requests even
    while solves are queued, so interleaving [stats] polls with admits
    on separate connections is the intended usage.

    Two layers: {!roundtrip} is one exchange on one connection and
    reports every failure; {!submit} is the resilient engine —
    reconnect with capped exponential backoff, honour [Overloaded]
    hints, and re-issue safely after a lost reply. *)

(** The connect/retry schedule: attempt [i] (0-based) sleeps
    [min cap_s (base_s *. multiplier ** i)] scaled by a jitter factor
    in [\[0.75, 1.25)] drawn deterministically from [seed]
    ({!Robust.Fault.det_float}) — reproducible in tests, and two
    clients with different seeds never thunder in lockstep. *)
type backoff = {
  base_s : float;
  cap_s : float;
  multiplier : float;
  retries : int;  (** connect attempts after the first *)
  seed : int;
}

(** 20 ms growing ×1.7, capped at 400 ms, 24 retries, seed 0 — worst
    case a few seconds of patience for a server still starting. *)
val default_backoff : backoff

(** [backoff_delay b i] is the exact sleep before retry [i] — exposed
    so tests can pin the schedule. *)
val backoff_delay : backoff -> int -> float

type t

(** [connect ?backoff path] dials the Unix-domain socket, sleeping
    [backoff_delay] between attempts — covering the start-up race of a
    server launched in the background moments earlier.  [Error msg]
    when the socket never comes up. *)
val connect : ?backoff:backoff -> string -> (t, string) Stdlib.result

(** [roundtrip t request] sends one request line and blocks for the
    reply line.  [Error msg] on a closed or damaged connection or an
    undecodable reply. *)
val roundtrip :
  t -> Protocol.request -> (Protocol.response, string) Stdlib.result

(** [close t] closes the connection.  Idempotent. *)
val close : t -> unit

(** [with_connection ?backoff path f] connects, runs [f] and closes on
    every exit path. *)
val with_connection :
  ?backoff:backoff ->
  string ->
  (t -> ('a, string) Stdlib.result) ->
  ('a, string) Stdlib.result

(** What {!submit} retries and how often. *)
type retry_policy = {
  attempts : int;  (** total tries, including the first *)
  overloaded_wait_cap_s : float;  (** ceiling on [retry_after_s] honoured *)
  backoff : backoff;  (** both the connect schedule and the
                          between-attempt pause *)
}

val default_retry : retry_policy

(** [submit ~socket request] runs one request to a final answer:
    each attempt opens a fresh connection; transport errors,
    [Overloaded] (sleeping the hinted [retry_after_s], capped) and
    handler-isolation failures ([Failed] with cause
    {!Protocol.Handler}) are retried; genuine verdicts, every other
    failure cause included, return immediately.  Re-issued [Admit]s
    carry the wire [retry] flag, so a reply lost after the server
    admitted cannot double-admit — the server recognises the id and
    answers again.  [Error msg] after the last attempt. *)
val submit :
  ?retry:retry_policy ->
  socket:string ->
  Protocol.request ->
  (Protocol.response, string) Stdlib.result
