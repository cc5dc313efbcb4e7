(** Serialisation of mapped configurations (the flow's output).

    A mapped configuration assigns every task a budget and every buffer
    a capacity.  The textual format is line-oriented like the
    configuration format of {!Parse}:

    {v
    budget wa 4
    budget wb 4
    capacity bab 10
    v}

    Round-trippable: [print] output always re-[parse]s against the same
    configuration. *)

exception Parse_error of int * string

(** [print cfg ppf mapped] writes the mapping of every task and buffer
    of [cfg]. *)
val print : Config.t -> Format.formatter -> Config.mapped -> unit

(** [parse cfg text] reads a mapping back.  Every task and buffer of
    [cfg] must be assigned exactly once; unknown names, duplicates,
    non-positive or non-finite budgets and capacities below a buffer's
    initial tokens are rejected.
    @raise Parse_error with a 1-based line number on malformed or
    incomplete input (a missing assignment, having no line of its own,
    is blamed on the last line). *)
val parse : Config.t -> string -> Config.mapped

(** [parse_file cfg path] reads a mapping from a file.
    @raise Sys_error when unreadable.
    @raise Parse_error as {!parse}. *)
val parse_file : Config.t -> string -> Config.mapped
