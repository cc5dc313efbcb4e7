(** Mutable binary min-heap of integers keyed by floats, used as the
    event queue of the discrete-event simulator.  Entries live in
    parallel key, sequence and value arrays.  Ties are broken by
    insertion order, which keeps event processing deterministic. *)

type t

(** [create ?capacity ()] is an empty heap with room for [capacity]
    (default 0) entries before its arrays grow. *)
val create : ?capacity:int -> unit -> t

(** [clear h] empties [h], keeping its storage. *)
val clear : t -> unit

(** [is_empty h] is true when the heap holds no elements. *)
val is_empty : t -> bool

(** [size h] is the number of stored elements. *)
val size : t -> int

(** [push h key v] inserts [v] with priority [key]. *)
val push : t -> float -> int -> unit

(** [push_keyed h keys v] is [push h keys.(v) v], but allocates
    nothing: across a module boundary the float argument of [push] is
    boxed. *)
val push_keyed : t -> float array -> int -> unit

(** [take h] removes the minimum-key element (earliest insertion first
    among equal keys) and returns its value; it allocates nothing.
    @raise Invalid_argument if [h] is empty. *)
val take : t -> int

(** [pop h] removes and returns the minimum-key element (earliest
    insertion first among equal keys). *)
val pop : t -> (float * int) option

(** [peek h] returns the minimum without removing it. *)
val peek : t -> (float * int) option
