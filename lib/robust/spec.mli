(** The injection-spec grammar shared by fault plans ({!Fault},
    [--fault], [BUDGETBUF_FAULT]) and chaos schedules ([Serve.Chaos],
    [--chaos], [BUDGETBUF_CHAOS]):

    {v KIND[,KEY=VALUE]...[,VALUE]... v}

    A grammar is a table: the kind keywords, the keyed options, and how
    many leading keys a bare [VALUE] fills in order.  One parser reads
    both tables, so the two specs share their whitespace rules, error
    messages and canonical printing (docs/robustness.md).  Option
    errors are prefixed ["NAME spec: "]; the first error wins. *)

type 'a key = {
  key : string;
  set : 'a -> string -> ('a, string) Stdlib.result;
      (** [set plan raw] applies the option's raw (untrimmed) value;
          [Error] is the reason, without the ["NAME spec: "] prefix *)
  show : 'a -> string option;
      (** the value {!to_string} prints; [None] at the default *)
}

type ('k, 'a) t = {
  name : string;  (** ["fault"] or ["chaos"]: names the grammar in errors *)
  kinds : ('k * string) list;
      (** every kind and its keyword, in the order errors list them *)
  plan : 'k -> 'a;  (** the plan a bare [KIND] denotes: keys at defaults *)
  kind : 'a -> 'k;
  keys : 'a key list;  (** in the order {!to_string} prints them *)
  positional : int;  (** how many leading [keys] a bare value may fill *)
}

(** [kind_name t k] is the keyword of kind [k]. *)
val kind_name : ('k, 'a) t -> 'k -> string

(** [parse t spec] reads a spec.  Kind and keys are trimmed; values
    reach {!key.set} as written. *)
val parse : ('k, 'a) t -> string -> ('a, string) Stdlib.result

(** [to_string t plan] is the canonical spec of [plan]: its kind, then
    every key not at its default. *)
val to_string : ('k, 'a) t -> 'a -> string

(** [of_env t ~var] parses the environment variable [var]: [None] when
    it is unset or blank.
    @raise Invalid_argument ["VAR: reason"] on a malformed spec. *)
val of_env : ('k, 'a) t -> var:string -> 'a option

(** [int_key key ~at_least ~get ~set] is an integer-valued key: the
    trimmed value must be an integer ([`Any]), [>= 0] ([`Zero]) or
    [>= 1] ([`One]), else ["KEY expects a positive integer, got RAW"]
    and the like; [get plan] is [None] at the key's default. *)
val int_key :
  string ->
  at_least:[ `Any | `Zero | `One ] ->
  get:('a -> int option) ->
  set:('a -> int -> 'a) ->
  'a key
