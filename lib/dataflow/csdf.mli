(** Cyclo-static dataflow (CSDF) graphs and their expansion to
    single-rate (SRDF) form.

    CSDF (Bilsen et al. 1996) generalises SDF: an actor cycles through
    a fixed sequence of {e phases}, each with its own firing duration
    and its own per-channel production/consumption rates.  Many
    streaming kernels (up/down-samplers, commutators, interleaved
    filters) are CSDF but not SDF, and the paper's closing discussion
    names such "more dynamic" models as the essential next step.  A
    multi-rate SDF graph is the one-phase case: one duration per actor
    ([~durations:[|d|]]) and one rate per channel endpoint
    ([~production:[|p|]], [~consumption:[|c|]]).

    The balance equations give the repetition vector, and the standard
    expansion (Lee & Messerschmitt 1987; Sriram & Bhattacharyya 2000)
    turns a consistent graph into an equivalent SRDF graph on which
    every analysis of {!Analysis} and {!Howard} applies unchanged. *)

type t
type actor
type channel

(** [create ()] is an empty CSDF graph. *)
val create : unit -> t

(** [add_actor t ~name ~durations] adds an actor whose phases have the
    given firing durations ([Array.length durations ≥ 1]).
    @raise Invalid_argument on an empty array or a negative entry. *)
val add_actor : t -> name:string -> durations:float array -> actor

(** [add_channel t ~src ~production ~dst ~consumption ?initial_tokens
    ()] adds a channel.  [production] gives the tokens produced by each
    phase of [src] (length = number of phases of [src]); [consumption]
    likewise for [dst].  Entries may be zero, but each vector must have
    a positive sum.
    @raise Invalid_argument on wrong lengths, negative entries,
    all-zero vectors or negative [initial_tokens]. *)
val add_channel :
  t -> src:actor -> production:int array -> dst:actor ->
  consumption:int array -> ?initial_tokens:int -> unit -> channel

(** Accessors. *)
val num_actors : t -> int

(** [actors t] lists all actors in declaration order. *)
val actors : t -> actor list

val num_channels : t -> int
val actor_name : t -> actor -> string
val phases : t -> actor -> int

(** [repetition_vector t] solves the balance equations over whole phase
    cycles: [q(src)·Σ production = q(dst)·Σ consumption] per channel,
    the smallest positive integer solution per connected component;
    actor [a] fires [q(a)·phases(a)] times per iteration.
    @return [Error msg] when the graph is inconsistent (no such
    solution exists — a graph that cannot execute in bounded memory). *)
val repetition_vector : t -> ((actor -> int), string) Stdlib.result

(** [dependencies t q ch] are the single-rate queues channel [ch]
    expands into under the repetition vector [q]: one
    [(s, l, tokens)] per pair of firings within an iteration, where
    firing [l] of the destination consumes a token produced by firing
    [s] of the source [tokens] iterations earlier (the smallest such
    distance of the pair).  Firings count from 1 as in
    {!expansion.firing}.  The order is the one {!expand} adds the
    edges in.
    @raise Invalid_argument on an unknown channel. *)
val dependencies : t -> (actor -> int) -> channel -> (int * int * int) list

type expansion = {
  srdf : Srdf.t;
  firing : actor -> int -> Srdf.actor;
      (** [firing a k] is the SRDF actor of the [k]-th firing of [a]
          within an iteration, [1 ≤ k ≤ q(a)·phases(a)]; its phase is
          [((k−1) mod phases(a)) + 1].
          @raise Invalid_argument out of range. *)
  repetitions : actor -> int;  (** cycles per iteration, [q(a)] *)
}

(** [expand ?serialize t] builds the equivalent SRDF graph: one actor
    per firing of an iteration and, for every channel, the edges of
    {!dependencies}.  With [serialize:true] (default [false]) each
    actor's firings are additionally chained into a cycle with one
    token, forbidding auto-concurrent firings of the same actor (the
    sequential-actor semantics of an actual task implementation).
    @return [Error msg] on an inconsistent graph. *)
val expand : ?serialize:bool -> t -> (expansion, string) Stdlib.result

(** [iteration_period ?serialize t] is the minimal period of a full
    iteration (the expansion's maximum cycle ratio).  [Error] when the
    graph is inconsistent or deadlocked. *)
val iteration_period : ?serialize:bool -> t -> (float, string) Stdlib.result
