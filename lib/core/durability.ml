module Socp = Conic.Socp
module Deadline = Durable.Deadline

(* Install the per-call hooks.  Each absent hook keeps the caller's
   own, and with none of them the caller's params pass through
   untouched — so an unlimited, unobserved, cold sweep keeps a
   hook-free iteration loop (and bit-identical behaviour with the
   params it was given). *)
let params ?deadline ?obs ?warm p =
  let deadline = Option.bind deadline Deadline.check in
  if Option.is_none deadline && Option.is_none obs && Option.is_none warm then p
  else
    let base = Option.value p ~default:Socp.default_params in
    let keep hook own = if Option.is_some hook then hook else own in
    Some
      {
        base with
        Socp.deadline = keep deadline base.Socp.deadline;
        obs = keep obs base.Socp.obs;
        warm = keep warm base.Socp.warm;
      }

(* One cold "anchor" solve whose solution seeds every candidate of a
   [tradeoff] or [pareto] sweep.  Anchoring (rather than chaining each
   candidate to its neighbour) keeps the sweep order-independent:
   candidates solved in parallel lanes, in journal-restored order, or
   alone all see the same seed, which is what makes warm starts pool-
   and resume-safe.  [dse] needs no anchor: its candidates chain the
   seed through their own probes ([Dse.min_period_scale]).
   The anchor strips observability (its iterations must not pollute
   the sweep's trace or metrics), fault injection (it is not a
   candidate; plans count attempts of candidates only) and any stale
   warm point.  Any outcome other than [Optimal] — including an
   exception — yields [None]: the sweep silently falls back to cold
   starts. *)
let warm_anchor ?deadline cfg =
  let params =
    let base =
      Option.value (params ?deadline None) ~default:Socp.default_params
    in
    { base with Socp.obs = None; inject = None; warm = None }
  in
  match
    let b = Socp_builder.build cfg in
    Conic.Model.solve ~params b.Socp_builder.model
  with
  | r when r.Conic.Model.status = Socp.Optimal ->
    let raw = r.Conic.Model.raw in
    Some { Socp.wx = raw.Socp.x; ws = raw.Socp.s; wz = raw.Socp.z }
  | _ -> None
  | exception _ -> None

(* The effective context of a call that takes both [?obs] and
   [?params]: an explicit [?obs] wins, else whatever already rides in
   the params (as threaded by an enclosing sweep). *)
let obs_of params obs =
  match obs with
  | Some _ -> obs
  | None -> (
    match (params : Socp.params option) with
    | Some p -> p.Socp.obs
    | None -> None)

(* Journal payloads render floats as hex literals ("%h"), which
   [float_of_string] parses back bit-exactly — a resumed sweep must
   reproduce the uninterrupted run to the last digit. *)
let float_to_token = Printf.sprintf "%h"

(* Whitespace-separated token scanners for payload decoding.  All of
   them raise on malformed input ([Scanf.Scan_failure], [Failure]);
   decoders catch and drop the record, which merely re-solves the
   candidate. *)
let scan_token ib = Scanf.bscanf ib " %s" Fun.id
let scan_float ib = float_of_string (scan_token ib)
let scan_int ib = int_of_string (scan_token ib)
let scan_quoted ib = Scanf.bscanf ib " %S" Fun.id

let expect_token ib tok =
  if not (String.equal (scan_token ib) tok) then
    raise (Scanf.Scan_failure ("expected " ^ tok))
