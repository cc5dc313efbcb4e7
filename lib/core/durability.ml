module Config = Taskgraph.Config
module Socp = Conic.Socp
module Deadline = Durable.Deadline

(* One cold "anchor" solve whose solution seeds every candidate of a
   [tradeoff] or [pareto] sweep.  Anchoring (rather than chaining each
   candidate to its neighbour) keeps the sweep order-independent:
   candidates solved in parallel lanes, in journal-restored order, or
   alone all see the same seed, which is what makes warm starts pool-
   and resume-safe.  [dse] needs no anchor: its candidates chain the
   seed through their own probes ([Dse.min_period_scale]).
   The anchor runs without observability (its iterations must not
   pollute the sweep's trace or metrics), fault injection (it is not a
   candidate; plans count attempts of candidates only) or a warm
   point.  Any outcome other than [Optimal] — including an exception —
   yields [None]: the sweep silently falls back to cold starts. *)
let warm_anchor ?deadline cfg =
  match
    let b = Socp_builder.build cfg in
    Conic.Model.solve
      ?deadline:(Option.bind deadline Deadline.check)
      b.Socp_builder.model
  with
  | r when r.Conic.Model.status = Socp.Optimal ->
    let raw = r.Conic.Model.raw in
    Some { Socp.wx = raw.Socp.x; ws = raw.Socp.s; wz = raw.Socp.z }
  | _ -> None
  | exception _ -> None

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

(* Journal payload of one solved candidate (docs/formats.md).  A
   successful solve is encoded as a faithful projection of
   [Mapping.result]: objectives, the continuous budget/λ per task and
   space/capacity per buffer (in dense-id order) and the rounded
   mapping.  The recovery trace and timing stats are *not* journaled —
   a restored result reports [recovery = []] and zeroed stats.  The
   exact certificate is not journaled either, deliberately: the decoder
   re-certifies the restored mapping against the candidate
   configuration, so the CRC guards the bits and the certifier guards
   the meaning. *)
let encode_result cfg (r : Mapping.result) =
  let buf = Buffer.create 256 in
  let tok s =
    if Buffer.length buf > 0 then Buffer.add_char buf ' ';
    Buffer.add_string buf s
  in
  let flt f = tok (float_to_token f) in
  let tasks = Config.all_tasks cfg and buffers = Config.all_buffers cfg in
  tok "ok";
  flt r.Mapping.objective;
  flt r.Mapping.rounded_objective;
  tok "t";
  tok (string_of_int (List.length tasks));
  List.iter
    (fun w ->
      flt (r.Mapping.continuous.Socp_builder.budget w);
      flt (r.Mapping.continuous.Socp_builder.lambda w);
      flt (r.Mapping.mapped.Config.budget w))
    tasks;
  tok "b";
  tok (string_of_int (List.length buffers));
  List.iter
    (fun b ->
      flt (r.Mapping.continuous.Socp_builder.space b);
      flt (r.Mapping.continuous.Socp_builder.capacity b);
      tok (string_of_int (r.Mapping.mapped.Config.capacity b)))
    buffers;
  Buffer.contents buf

(* A timed-out candidate is never journaled, so a resume retries it. *)
let encode_outcome cfg = function
  | Ok r -> Some (encode_result cfg r)
  | Error (Mapping.Infeasible msg) -> Some (Printf.sprintf "infeasible %S" msg)
  | Error (Mapping.Solver_failure { detail; _ } as e) ->
    Some (Printf.sprintf "failure %S %S" (Mapping.label e) detail)
  | Error (Mapping.Timed_out _) -> None

(* [candidate] is the clone the result was originally solved on: the
   restored mapping is re-certified against it, not merely replayed. *)
let decode_result cfg ~candidate ib =
  let obj = scan_float ib and robj = scan_float ib in
  let tasks = Config.all_tasks cfg and buffers = Config.all_buffers cfg in
  expect_token ib "t";
  if scan_int ib <> List.length tasks then
    raise (Scanf.Scan_failure "task count mismatch");
  (* Entries come in dense-id order, so slot [i] belongs to id [i]. *)
  let per_task =
    Array.init (List.length tasks) (fun _ ->
        let budget = scan_float ib in
        let lambda = scan_float ib in
        let mapped = scan_float ib in
        (budget, lambda, mapped))
  in
  expect_token ib "b";
  if scan_int ib <> List.length buffers then
    raise (Scanf.Scan_failure "buffer count mismatch");
  let per_buffer =
    Array.init (List.length buffers) (fun _ ->
        let space = scan_float ib in
        let capacity = scan_float ib in
        let mapped = scan_int ib in
        (space, capacity, mapped))
  in
  (* Decoding stops here: the [v] (verification) and [s] (sim-check)
     note groups that older journals append are ignored. *)
  let task_field pick w = pick per_task.(Config.task_id w) in
  let buffer_field pick b = pick per_buffer.(Config.buffer_id b) in
  let mapped =
    {
      Config.budget = task_field (fun (_, _, m) -> m);
      Config.capacity = buffer_field (fun (_, _, m) -> m);
    }
  in
  {
    Mapping.mapped;
    continuous =
      {
        Socp_builder.budget = task_field (fun (b, _, _) -> b);
        lambda = task_field (fun (_, l, _) -> l);
        space = buffer_field (fun (s, _, _) -> s);
        capacity = buffer_field (fun (_, c, _) -> c);
        objective = obj;
      };
    objective = obj;
    rounded_objective = robj;
    (* CRC already guarded the bits; re-certifying guards the meaning
       (and gives a reused entry the original's certificate instead of
       an empty one). *)
    certificate = Certify.check candidate mapped;
    (* Restored from journal: the solve was not re-run, so there is no
       recovery trace and no timing to report. *)
    recovery = [];
    stats =
      {
        Mapping.variables = 0;
        rows = 0;
        iterations = 0;
        attempts = 0;
        solve_time_s = 0.0;
        kkt_fallbacks = 0;
      };
    warm = None;
  }

let decode_outcome cfg ~candidate payload =
  match
    let ib = Scanf.Scanning.from_string payload in
    match scan_token ib with
    | "ok" -> Some (Ok (decode_result cfg ~candidate ib))
    | "infeasible" -> Some (Error (Mapping.Infeasible (scan_quoted ib)))
    | "failure" ->
      (* An unknown cause refuses the record, and so does a record of
         the older [failure <string>] form. *)
      Mapping.failure_of_name (scan_quoted ib)
      |> Option.map (fun cause -> Mapping.fail cause (scan_quoted ib))
    | _ -> None
  with
  | v -> v
  | exception (Scanf.Scan_failure _ | Failure _ | End_of_file | Not_found) ->
    None

let solve_candidates ?fault ?pool ?deadline ?candidate_deadline ?journal
    ?cancel ?obs ?on_progress cfg ~n ~candidate =
  let fault = match fault with Some f -> f | None -> Robust.Fault.of_env () in
  (* One cold anchor solve on the first candidate seeds every candidate;
     see [warm_anchor] for why anchoring — not neighbour-chaining —
     keeps warm starts pool- and resume-safe. *)
  let warm =
    if n = 0 then None
    else
      warm_anchor
        ~deadline:(Durable.Sweep.candidate_deadline deadline candidate_deadline)
        (candidate 0)
  in
  let results, _ =
    Durable.Sweep.run ?pool ?journal ?obs ?deadline ?candidate_deadline ?cancel
      ?on_progress ~encode:(encode_outcome cfg)
      ~decode:(fun i -> decode_outcome cfg ~candidate:(candidate i))
      ~verdict:(function
        | Ok _ -> "ok"
        | Error (Mapping.Solver_failure _) -> "skipped"
        | Error e -> Mapping.label e)
      ~failed:(fun _ e -> Mapping.of_exn e)
      ~n
      (fun ~deadline i ->
        Mapping.solve ~deadline ?warm
          ~fault:(Robust.Fault.for_candidate fault ~index:i)
          ?obs (candidate i))
  in
  results
