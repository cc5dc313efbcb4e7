(** The paper's application model (Section II-A).

    A configuration [C = (Q, P, M, µ, ̺, o, ς, g)] consists of task
    graphs [Q], processors [P] with replenishment intervals [̺] and
    scheduling overheads [o], memories [M] with storage capacities [ς],
    and a budget-allocation granularity [g].  Every task graph
    [T = (W, B, π, χ, ν, ζ, ι)] has tasks [W] (bound to processors,
    with worst-case execution times [χ]) and FIFO buffers [B] (placed
    in memories, with container sizes [ζ] and initially-filled
    container counts [ι]).  Budget and buffer sizes are traded off via
    the weight functions [a : W → ℝ] and [b : B → ℝ].

    Time is expressed in Mcycles throughout, matching the paper's
    experiments.  The output of the mapping flow is a
    {!mapped} configuration assigning a budget [β(w)] to every task and
    a capacity [γ(b)] (in containers) to every buffer. *)

type t
type proc
type memory
type task
type buffer
type graph

(** [create ~granularity ()] is an empty configuration with budget
    granularity [g] (Mcycles).
    @raise Invalid_argument if [granularity <= 0]. *)
val create : granularity:float -> unit -> t

(** [add_processor t ~name ~replenishment ?overhead ()] declares a
    processor with TDM replenishment interval [̺] and worst-case
    scheduling overhead [o] per interval (default [0.]).
    @raise Invalid_argument on non-positive [replenishment], negative
    [overhead], or a duplicate name. *)
val add_processor :
  t -> name:string -> replenishment:float -> ?overhead:float -> unit -> proc

(** [add_memory t ~name ~capacity] declares a memory with storage
    capacity [ς] in container-size units.
    @raise Invalid_argument on negative capacity or duplicate name. *)
val add_memory : t -> name:string -> capacity:int -> memory

(** [add_graph t ~name ~period ?latency_bound ()] declares a task graph
    with throughput requirement "one iteration every [period] Mcycles"
    (the paper's [µ(T)]) and an optional end-to-end latency bound from
    the graph's unique source task to its unique sink task (an
    extension beyond the paper: the bound is affine in the start-time
    variables, so Algorithm 1 absorbs it unchanged).
    @raise Invalid_argument on non-positive period, non-positive
    latency bound, or duplicate name. *)
val add_graph :
  t -> name:string -> period:float -> ?latency_bound:float -> unit -> graph

(** [add_task t g ~name ~proc ~wcet ?weight ()] adds a task with
    worst-case execution time [χ] to graph [g], bound to [proc]; the
    budget weight [a(w)] defaults to [1.].
    @raise Invalid_argument on non-positive [wcet] or duplicate name
    within the configuration. *)
val add_task :
  t -> graph -> name:string -> proc:proc -> wcet:float -> ?weight:float ->
  unit -> task

(** [add_buffer t g ~name ~src ~dst ~memory ?container_size
    ?initial_tokens ?weight ?max_capacity ()] adds a FIFO buffer from
    [src] to [dst] (both tasks of [g]), placed in [memory], with
    container size [ζ] (default 1), [ι] initially filled containers
    (default 0), buffer weight [b] (default 1.), and an optional upper
    bound on the computed capacity (used for trade-off sweeps).
    @raise Invalid_argument on inconsistent arguments. *)
val add_buffer :
  t -> graph -> name:string -> src:task -> dst:task -> memory:memory ->
  ?container_size:int -> ?initial_tokens:int -> ?weight:float ->
  ?max_capacity:int -> unit -> buffer

(** [copy ?period_scale t] is an independent clone of [t], every graph
    period multiplied by [period_scale] (default 1).  All handles
    ([proc], [task], [buffer], …) are dense ids assigned in insertion
    order, so a handle obtained from [t] is valid on the copy and
    denotes the same entity — which is what lets design-space sweeps
    hand one clone per candidate to a worker domain and still query the
    results with the caller's handles.  Mutations on either side never
    reach the other.
    @raise Invalid_argument if [period_scale <= 0]. *)
val copy : ?period_scale:float -> t -> t

(** [set_period t g mu] replaces the throughput requirement of graph
    [g] (used by the design-space exploration to rescale one
    configuration in place).
    @raise Invalid_argument if [mu <= 0]. *)
val set_period : t -> graph -> float -> unit

(** [set_max_capacity t b cap] replaces the capacity bound of a buffer
    ([None] removes it). *)
val set_max_capacity : t -> buffer -> int option -> unit

(** [set_task_proc t w p] binds task [w] to processor [p] and
    [set_buffer_memory t b m] places buffer [b] in memory [m] (used by
    the binding search to rebind one {!copy} per candidate).
    @raise Invalid_argument on an unknown handle. *)
val set_task_proc : t -> task -> proc -> unit

val set_buffer_memory : t -> buffer -> memory -> unit

(** [set_task_weight t w a] and [set_buffer_weight t b v] update the
    objective weights. *)
val set_task_weight : t -> task -> float -> unit

val set_buffer_weight : t -> buffer -> float -> unit

(** Enumeration. *)
val processors : t -> proc list

val memories : t -> memory list
val graphs : t -> graph list
val tasks : t -> graph -> task list
val buffers : t -> graph -> buffer list

(** [all_tasks t] is the paper's [W_Q]: tasks of all graphs. *)
val all_tasks : t -> task list

(** [all_buffers t] is the paper's [B_Q]. *)
val all_buffers : t -> buffer list

(** [chain_ends t g] is the unique task of [g] with no incoming
    buffer and the unique task with no outgoing buffer, as
    [Some (source, sink)]; [None] when either is not unique.  The
    end-to-end latency of a graph runs between the two. *)
val chain_ends : t -> graph -> (task * task) option

(** Attribute accessors. *)
val granularity : t -> float

val proc_name : t -> proc -> string
val replenishment : t -> proc -> float
val overhead : t -> proc -> float
val memory_name : t -> memory -> string
val memory_capacity : t -> memory -> int
val graph_name : t -> graph -> string
val period : t -> graph -> float
val latency_bound : t -> graph -> float option
val task_name : t -> task -> string
val task_proc : t -> task -> proc
val task_graph : t -> task -> graph
val wcet : t -> task -> float
val task_weight : t -> task -> float
val buffer_name : t -> buffer -> string
val buffer_src : t -> buffer -> task
val buffer_dst : t -> buffer -> task
val buffer_memory : t -> buffer -> memory
val container_size : t -> buffer -> int
val initial_tokens : t -> buffer -> int
val buffer_weight : t -> buffer -> float
val max_capacity : t -> buffer -> int option

(** [tasks_on t p] is the paper's [τ(p)]: all tasks bound to [p]. *)
val tasks_on : t -> proc -> task list

(** [buffers_in t m] is the paper's [ψ(m)]: all buffers placed in [m]. *)
val buffers_in : t -> memory -> buffer list

(** Lookup by name. @raise Not_found when absent. *)
val find_proc : t -> string -> proc

val find_memory : t -> string -> memory
val find_graph : t -> string -> graph
val find_task : t -> string -> task
val find_buffer : t -> string -> buffer

(** Dense ids (stable for the configuration's lifetime). *)
val task_id : task -> int

(** [task_of_id t i] and [buffer_of_id t i] invert {!task_id} and
    {!buffer_id}. @raise Invalid_argument when out of range. *)
val task_of_id : t -> int -> task

val buffer_of_id : t -> int -> buffer

val buffer_id : buffer -> int
val proc_id : proc -> int
val memory_id : memory -> int
val graph_id : graph -> int

(** [validate t] returns human-readable problems: tasks whose WCET can
    never fit any budget, buffers whose single container already
    exceeds its memory, processors whose overhead consumes the whole
    interval, and similar dead-on-arrival situations.  An empty list
    means the configuration is plausible (not necessarily feasible). *)
val validate : t -> string list

(** The mapped configuration: the output of the flow (Section II-A2). *)
type mapped = {
  budget : task -> float;  (** β(w), Mcycles per replenishment interval *)
  capacity : buffer -> int;  (** γ(b), containers *)
}

(** [pp ppf t] prints the configuration in the concrete syntax accepted
    by {!Parse.config} (round-trippable). *)
val pp : Format.formatter -> t -> unit

(** [pp_mapped t ppf m] prints budgets and buffer capacities. *)
val pp_mapped : t -> Format.formatter -> mapped -> unit

(** [pp_dot ppf t] prints the configuration in Graphviz DOT syntax:
    tasks as nodes clustered by task graph (labelled with their WCET
    and processor), buffers as edges labelled with their container
    size, initial tokens and capacity bound. *)
val pp_dot : Format.formatter -> t -> unit
