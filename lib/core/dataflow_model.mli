(** The mapping's violations as a list, under the name the
    benchmark's per-layer table times ([core.verify]).  The SRDF model
    of a mapped graph and every verdict on it live in {!Certify}. *)

(** [verify cfg mapped] is {!Certify.violations}: empty exactly when
    {!Certify.check} certifies the mapping, every violated constraint,
    the certificate's refutation first, otherwise. *)
val verify : Taskgraph.Config.t -> Taskgraph.Config.mapped -> Violation.t list
