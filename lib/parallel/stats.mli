(** Lightweight pool instrumentation.

    Counters are maintained under the pool lock (except the per-domain
    busy times, each of which is written by exactly one domain), so
    reading them costs nothing on the solve path.  They exist so that
    pool behaviour is checked rather than assumed: [test_parallel]
    pins the task, queue and busy-time counters. *)

type t = {
  domains : int;  (** total lanes: the submitting domain plus workers *)
  tasks_run : int;  (** tasks executed since {!Pool.create} *)
  queue_high_water : int;  (** deepest the work queue has ever been *)
  busy_s : float array;
      (** per-lane busy seconds; index 0 is the submitting domain,
          indices 1.. are the spawned workers *)
}
