module Config = Taskgraph.Config

type point = {
  cap : int;
  result : (Mapping.result, Mapping.error) Stdlib.result;
}

(* Journal payload of one sweep point (docs/formats.md).  A successful
   solve is encoded as a faithful projection of [Mapping.result]:
   objectives, the continuous budget/λ per task and space/capacity per
   buffer (in dense-id order) and the rounded mapping.  The recovery
   trace and timing stats are *not* journaled — a restored point
   reports [recovery = []] and zeroed stats, documented as "restored
   from journal".  The exact certificate is not journaled either,
   deliberately: the decoder re-certifies the restored mapping against
   the candidate configuration, so the CRC guards the bits and the
   certifier guards the meaning.  A timed-out candidate is never
   journaled, so a resume retries it. *)
let encode_result cfg (r : Mapping.result) =
  let buf = Buffer.create 256 in
  let tok s =
    if Buffer.length buf > 0 then Buffer.add_char buf ' ';
    Buffer.add_string buf s
  in
  let flt f = tok (Durability.float_to_token f) in
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

let encode_point cfg p =
  match p.result with
  | Ok r -> Some (encode_result cfg r)
  | Error (Mapping.Infeasible msg) -> Some (Printf.sprintf "infeasible %S" msg)
  | Error (Mapping.Solver_failure msg) -> Some (Printf.sprintf "failure %S" msg)
  | Error (Mapping.Timed_out _) -> None

(* [candidate] is the capped clone the point was originally solved on:
   the restored mapping is re-certified against it, not merely
   replayed. *)
let decode_result cfg ~candidate ib =
  let module D = Durability in
  let obj = D.scan_float ib and robj = D.scan_float ib in
  let tasks = Config.all_tasks cfg and buffers = Config.all_buffers cfg in
  D.expect_token ib "t";
  if D.scan_int ib <> List.length tasks then
    raise (Scanf.Scan_failure "task count mismatch");
  (* Entries come in dense-id order, so slot [i] belongs to id [i]. *)
  let per_task =
    Array.init (List.length tasks) (fun _ ->
        let budget = D.scan_float ib in
        let lambda = D.scan_float ib in
        let mapped = D.scan_float ib in
        (budget, lambda, mapped))
  in
  D.expect_token ib "b";
  if D.scan_int ib <> List.length buffers then
    raise (Scanf.Scan_failure "buffer count mismatch");
  let per_buffer =
    Array.init (List.length buffers) (fun _ ->
        let space = D.scan_float ib in
        let capacity = D.scan_float ib in
        let mapped = D.scan_int ib in
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

let decode_point cfg ~candidate cap payload =
  match
    let ib = Scanf.Scanning.from_string payload in
    match Durability.scan_token ib with
    | "ok" -> Some { cap; result = Ok (decode_result cfg ~candidate ib) }
    | "infeasible" ->
      Some
        { cap; result = Error (Mapping.Infeasible (Durability.scan_quoted ib)) }
    | "failure" ->
      Some
        {
          cap;
          result = Error (Mapping.Solver_failure (Durability.scan_quoted ib));
        }
    | _ -> None
  with
  | v -> v
  | exception (Scanf.Scan_failure _ | Failure _ | End_of_file | Not_found) ->
    None

let capacity_sweep ?fault ?pool ?deadline ?candidate_deadline ?journal
    ?cancel ?obs ?on_progress cfg ~buffers ~caps =
  let caps = Array.of_list caps in
  let fault = match fault with Some f -> f | None -> Robust.Fault.of_env () in
  (* Each cap solves its own clone (handles are dense ids, valid across
     copies), so candidate solves are independent and can be batched on
     a pool; [cfg] is never touched.  A restored point is re-certified
     against the same clone. *)
  let candidate i =
    let capped = Config.copy cfg in
    List.iter
      (fun b -> Config.set_max_capacity capped b (Some caps.(i)))
      buffers;
    capped
  in
  (* One cold anchor solve on the first candidate seeds every candidate;
     see [Durability.warm_anchor] for why anchoring — not
     neighbour-chaining — keeps warm starts pool- and resume-safe. *)
  let warm =
    if Array.length caps = 0 then None
    else
      Durability.warm_anchor
        ~deadline:(Durable.Sweep.candidate_deadline deadline candidate_deadline)
        (candidate 0)
  in
  let results, _ =
    Durable.Sweep.run ?pool ?journal ?obs ?deadline ?candidate_deadline ?cancel
      ?on_progress ~encode:(encode_point cfg)
      ~decode:(fun i -> decode_point cfg ~candidate:(candidate i) caps.(i))
      ~verdict:(fun p ->
        match p.result with
        | Ok _ -> "ok"
        | Error (Mapping.Infeasible _) -> "infeasible"
        | Error (Mapping.Timed_out _) -> "timed out"
        | Error (Mapping.Solver_failure _) -> "skipped")
      ~failed:(fun i e ->
        {
          cap = caps.(i);
          result =
            Error
              (Mapping.Solver_failure
                 ("uncaught exception: " ^ Printexc.to_string e));
        })
      ~n:(Array.length caps)
      (fun ~deadline i ->
        let params = Durability.params ~deadline ?obs ?warm None in
        {
          cap = caps.(i);
          result =
            Mapping.solve ?params
              ~fault:(Robust.Fault.for_candidate fault ~index:i)
              (candidate i);
        })
  in
  List.filter_map Fun.id (Array.to_list results)

let skipped points =
  List.filter_map
    (fun p ->
      match p.result with
      | Error ((Mapping.Solver_failure _ | Mapping.Timed_out _) as e) ->
        Some (p.cap, Mapping.short_reason e)
      | Error (Mapping.Infeasible _) | Ok _ -> None)
    points

let budget_of point task =
  match point.result with
  | Error _ -> None
  | Ok r -> Some (r.Mapping.continuous.Socp_builder.budget task)

let budget_deltas points task =
  let successes =
    List.filter_map
      (fun p ->
        match budget_of p task with None -> None | Some b -> Some (p.cap, b))
      points
  in
  let rec pair = function
    | (_, b1) :: ((c2, b2) :: _ as rest) -> (c2, b1 -. b2) :: pair rest
    | [ _ ] | [] -> []
  in
  pair successes
