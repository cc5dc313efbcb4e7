(** The flat-JSON object codec: one object per line, one level deep.

    Every trace line ({!Trace}) and every frame of the admission
    server's wire and worker pipes ([Serve.Protocol], [Serve.Worker])
    is one such object.  Values are strings, numbers or booleans —
    nothing nested, nothing null.  Finite floats render with ["%.17g"]
    so a value round-trips bit-exactly; integers render with
    [string_of_int].  Non-finite floats have no spelling: {!render}
    rejects them, and a caller that needs them (the trace) quotes them
    as strings itself. *)

type value =
  | String of string
  | Number of float
  | Int of int
      (** rendered with [string_of_int]; {!parse} reads every number
          token back as a {!Number} *)
  | Bool of bool

(** An object as an ordered field list.  Duplicate keys are rejected by
    {!parse}; {!render} trusts its caller. *)
type obj = (string * value) list

(** [render obj] prints the object on one line, no trailing newline.
    @raise Invalid_argument on a non-finite number. *)
val render : obj -> string

(** [parse line] decodes what {!render} wrote (plus insignificant
    whitespace).  [Error reason] on anything outside the restricted
    grammar: nesting, null, duplicate keys, a non-finite number token,
    trailing garbage.  The reason is bare (["bad value"],
    ["truncated"]); callers name the message that failed.  Never
    raises. *)
val parse : string -> (obj, string) Stdlib.result

(** Field accessors for parsed objects; [None] when the key is absent
    {e or} holds a value of the wrong type ([int] additionally requires
    an integral number). *)

val str : obj -> string -> string option
val number : obj -> string -> float option
val int : obj -> string -> int option
val bool : obj -> string -> bool option
