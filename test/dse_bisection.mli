(** The blind bisection [Budgetbuf.Dse.min_period_scale] ran before it
    bounded the period with the min-period cone program, kept in the
    test tree as an oracle for the points the library prints.

    It probes the unscaled period, doubles the scale until a probe is
    certified, then halves [[max χ/µ, hi]] to a relative width of 1e-4,
    accepting a probe on its exact certificate alone and chaining warm
    starts through its own probes.  It reports the accepted probe's
    scale, not the exact scale of the mapping behind it. *)

(** [min_period_scale ?on_probe cfg] is the accepted scale, or [None]
    when no probe up to 1000× the periods is certified.  [on_probe] sees
    the scale of every probe. *)
val min_period_scale :
  ?on_probe:(float -> unit) -> Taskgraph.Config.t -> float option

(** [min_period cfg ~cap] is the first graph's period at that scale
    with every buffer capped at [cap], as [dse] printed it. *)
val min_period : Taskgraph.Config.t -> cap:int -> float option
