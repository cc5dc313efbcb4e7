(** Single-rate dataflow (SRDF) graphs.

    Also known as homogeneous synchronous dataflow graphs, computation
    graphs (Reiter 1968) or marked graphs: a directed multigraph whose
    vertices (actors) fire by consuming one token from every input
    queue and producing one token on every output queue.  Each actor
    [v] has a single firing duration [ρ(v) ≥ 0]; each queue [e] carries
    an initial number of tokens [δ(e) ≥ 0].

    This is the analysis model of Section II-B of the paper; the core
    library builds these graphs from task graphs (Section II-C) and
    asks {!Analysis} whether a periodic admissible schedule exists. *)

type t

(** Actors and edges are dense handles valid for the graph that created
    them. *)
type actor

type edge

(** [create ()] is an empty graph. *)
val create : unit -> t

(** [add_actor g ~name ~duration] adds an actor with firing duration
    [duration].
    @raise Invalid_argument if [duration < 0] or is not finite. *)
val add_actor : t -> name:string -> duration:float -> actor

(** [add_edge g ~src ~dst ~tokens] adds a queue from [src] to [dst]
    carrying [tokens] initial tokens.
    @raise Invalid_argument if [tokens < 0] or the actors belong to a
    different graph. *)
val add_edge : t -> src:actor -> dst:actor -> tokens:int -> edge

(** [set_duration g v d] updates a firing duration (used when re-timing
    a graph for new budget values). *)
val set_duration : t -> actor -> float -> unit

(** Accessors. *)
val num_actors : t -> int

val num_edges : t -> int
val actors : t -> actor list
val edges : t -> edge list
val actor_name : t -> actor -> string
val duration : t -> actor -> float
val tokens : t -> edge -> int
val edge_src : t -> edge -> actor
val edge_dst : t -> edge -> actor

(** [out_edges g v] lists the queues leaving [v]. *)
val out_edges : t -> actor -> edge list

(** [in_edges g v] lists the queues entering [v]. *)
val in_edges : t -> actor -> edge list

(** [actor_id v] and [edge_id e] expose the dense indices (stable for
    the lifetime of the graph), for use as array keys. *)
val actor_id : actor -> int

val edge_id : edge -> int

(** [actor_of_id g i] is the inverse of {!actor_id}.
    @raise Invalid_argument if out of range. *)
val actor_of_id : t -> int -> actor

(** [find_actor g name] finds an actor by name.
    @raise Not_found if absent. *)
val find_actor : t -> string -> actor

(** [is_strongly_connected g] checks strong connectivity (by a forward
    and a backward reachability pass). *)
val is_strongly_connected : t -> bool

(** [validate g] checks internal invariants (non-negative durations and
    tokens) and returns a list of human-readable problems, empty when
    the graph is well-formed. *)
val validate : t -> string list

(** [pp ppf g] prints a summary listing actors and queues. *)
val pp : Format.formatter -> t -> unit

(** [pp_dot ppf g] prints the graph in Graphviz DOT syntax: actors as
    nodes labelled with their firing durations, queues as edges
    labelled with their token counts. *)
val pp_dot : Format.formatter -> t -> unit
