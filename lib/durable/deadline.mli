(** Wall-clock budgets for long-running sweeps.

    A deadline is an absolute instant; work holding one polls
    {!expired} at natural checkpoints (between sweep candidates,
    between interior-point iterations) and winds down cooperatively —
    no signals, no asynchronous exceptions.  The special value {!none}
    never expires, so callers thread a [t] unconditionally instead of
    branching on an option. *)

type t

(** The deadline that never expires. *)
val none : t

(** [is_none t] holds for {!none} only. *)
val is_none : t -> bool

(** [after seconds] expires [seconds] from now.
    @raise Invalid_argument when [seconds] is non-positive, infinite or
    NaN. *)
val after : float -> t

(** [of_remaining_s seconds] is the deadline [seconds] from now, the
    inverse of {!remaining_s}.  Unlike {!after} it takes any value, for
    budgets that may have lapsed in transit: zero, negative or NaN give
    an already-expired deadline, [infinity] gives {!none}. *)
val of_remaining_s : float -> t

(** [combine a b] is the earlier of the two deadlines ({!none} is the
    identity). *)
val combine : t -> t -> t

(** [expired t] polls the clock. *)
val expired : t -> bool

(** [remaining_s t] is the time left (negative once expired, [+inf] for
    {!none}). *)
val remaining_s : t -> float

(** [check t] is the polling closure handed to {!Conic.Socp.solve}'s
    [?deadline]: [None] for {!none} — so an unlimited
    solve keeps a hook-free iteration loop — otherwise
    [Some (fun () -> expired t)]. *)
val check : t -> (unit -> bool) option

(** [now ()] reads the deadline clock (for symmetric timestamping in
    callers). *)
val now : unit -> float

(** [set_clock_for_testing (Some f)] replaces the wall clock with [f];
    [None] restores [Unix.gettimeofday].  Tests only — deadlines
    created under one clock are compared under the current one. *)
val set_clock_for_testing : (unit -> float) option -> unit
