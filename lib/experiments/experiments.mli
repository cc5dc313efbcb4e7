(** Reproduction of every table and figure of the paper's evaluation
    section (Section V), plus the supporting in-text claims and the
    ablations called out in DESIGN.md.

    Each function prints one experiment's series to the given
    formatter, in the same rows/columns the paper plots.  The CLI
    ([budgetbuf experiment ID|all]) dispatches here, so the numbers
    recorded in EXPERIMENTS.md come from exactly this code. *)

(** [fig2a ppf] — Figure 2(a): the non-linear budget/buffer trade-off
    on the producer–consumer graph T1, with the closed-form oracle and
    the relative error per point. *)
val fig2a : Format.formatter -> unit

(** [fig2b ppf] — Figure 2(b): budget reduction per extra container. *)
val fig2b : Format.formatter -> unit

(** [fig3 ppf] — Figure 3: topology dependence on the three-task chain
    T2 (the middle task keeps the larger budget). *)
val fig3 : Format.formatter -> unit

(** [runtime ppf] — the in-text claim "the run-time of our analysis is
    milliseconds": wall-clock times for T1, T2 and growing chains. *)
val runtime : Format.formatter -> unit

(** [baselines ppf] — joint flow vs the two-phase baselines on capped
    T1, demonstrating the false negatives of Section I. *)
val baselines : Format.formatter -> unit

(** [rounding ppf] — ablation: cost of the conservative rounding for
    granularities g ∈ {1, 2, 4}. *)
val rounding : Format.formatter -> unit

(** [lp_cross_check ppf] — ablation: the phase-2 buffer LP solved by
    exact simplex and by the interior-point method must agree. *)
val lp_cross_check : Format.formatter -> unit

(** [simulation ppf] — validation: TDM-simulated steady-state periods
    against the required periods for solver-produced mappings. *)
val simulation : Format.formatter -> unit

(** [mcr_ablation ppf] — ablation: Howard's policy iteration against
    the binary-search MCR on growing random strongly connected
    graphs. *)
val mcr_ablation : Format.formatter -> unit

(** [pareto ?pool ppf] — extension: the Pareto frontier of total budget
    vs total containers on T1 (the weight sweep the paper describes).
    The candidate solves batch onto [?pool] when given. *)
val pareto : ?pool:Parallel.Pool.t -> Format.formatter -> unit

(** [binding ppf] — extension: binding-search strategies compared on an
    asymmetric two-processor pipeline. *)
val binding : Format.formatter -> unit

(** [dse ?pool ppf] — extension: the dual of Figure 2(a): best
    sustainable period per buffer-capacity cap, by bisection over the
    joint program.  The capacity points batch onto [?pool] when
    given. *)
val dse : ?pool:Parallel.Pool.t -> Format.formatter -> unit

(** [campaign ppf] — extension: the Section I false-negative argument
    at scale: 100 random capped chains, counting how often the
    two-phase policies fail on instances the joint flow solves, and the
    objective overhead when they do succeed. *)
val campaign : Format.formatter -> unit

(** [t1_analytic d] is the closed-form optimal symmetric budget of T1
    under a buffer capacity of [d] containers (DESIGN.md §5). *)
val t1_analytic : int -> float

(** [critical ppf] — extension: the critical cycle of the rounded T1
    mapping per capacity cap (buffer ring vs self-loop crossover). *)
val critical : Format.formatter -> unit

(** [latency ppf] — extension: the latency/budget/buffer three-way
    trade-off (latency bound sweep on T1). *)
val latency : Format.formatter -> unit

(** [slp ppf] — ablation: the naive sequential-LP linearisation against
    the cone program, measuring the paper's claim that no reasonable
    linearised approximation exists. *)
val slp : Format.formatter -> unit

(** [apps ppf] — the classic streaming-application suite (H.263, MP3,
    modem, car radio) solved and simulated end to end. *)
val apps : Format.formatter -> unit

(** [all ?pool ppf] runs every experiment above.  Without a pool the
    sections print directly, in order.  With a pool each independent
    section renders concurrently into its own buffer and the buffers
    are emitted in the same fixed order, so every computed figure of
    the report is identical to the sequential run.  (The measured
    wall-clock columns of the runtime/MCR/application tables vary
    between any two runs, pooled or not.) *)
val all : ?pool:Parallel.Pool.t -> Format.formatter -> unit

(** [by_name ?pool name] looks up an experiment printer by its table id
    ("fig2a", "fig2b", "fig3", "rt", "baselines", "rounding", "lp",
    "sim", "all"); [None] for unknown names.  [?pool] reaches the
    experiments that fan out internally ("pareto", "dse", "all"). *)
val by_name :
  ?pool:Parallel.Pool.t -> string -> (Format.formatter -> unit) option

(** [names] lists the valid experiment ids. *)
val names : string list
