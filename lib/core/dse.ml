module Config = Taskgraph.Config
module Rat = Exact.Rat

(* Raised inside a search when a probe times out: once the deadline
   is blown, further probes could only time out too, so the search is
   abandoned wholesale instead of bisecting on garbage. *)
exception Probe_expired

(* The bisection stops at this relative width. *)
let tolerance = 1e-4

(* The first probe sits this far above the min-period bound, half the
   tolerance: a certified probe there ends the search. *)
let first_step = 5e-5

(* Probes beyond this scale are not tried: the search gives up. *)
let max_scale = 1000.0

(* The smallest float at or above [q]. *)
let float_up q =
  let rec up f =
    if Rat.compare (Rat.of_float f) q < 0 then up (Float.succ f) else f
  in
  up (Rat.to_float q)

(* The optimum of the min-period form of Algorithm 1
   ({!Socp_builder.build_min_period}), solved once and cold: no scale
   below it admits a cone-program mapping.  [Some (s, β′)] with the
   scale and the optimum's budgets, [None] unless the solve is optimal.
   It runs in a ["socp"] span of [obs], so a trace counts it with the
   probes' solves. *)
let period_bound ?deadline ?obs cfg =
  let b = Socp_builder.build_min_period cfg in
  let r =
    Obs.Ctx.with_span obs "socp" (fun () ->
        Conic.Model.solve
          ?deadline:(Option.bind deadline Durable.Deadline.check)
          ?obs b.Socp_builder.bound_model)
  in
  let s = r.Conic.Model.value b.Socp_builder.scale_var in
  if r.Conic.Model.status = Conic.Socp.Optimal && Float.is_finite s && s > 0.0
  then
    Some (s, fun w -> r.Conic.Model.value (b.Socp_builder.bound_budget_var w))
  else None

(* The search behind [min_period_scale]: the accepted scale and the
   periods, one per graph in [Config.graphs] order, at which the
   mapping behind it is certified; without one, the first probe's
   solver failure or timeout, else [Ok None]. *)
let search ?deadline ?fault ?obs ?on_probe ?on_feasible cfg =
  let fault = match fault with Some f -> f | None -> Robust.Fault.of_env () in
  (* One mutable clone serves every probe: only the periods change
     between probes, so rescaling them in place beats rebuilding the
     whole configuration each time. *)
  let probe_cfg = Config.copy cfg in
  let base =
    List.map (fun g -> (g, Config.period cfg g)) (Config.graphs cfg)
  in
  let set_periods periods =
    List.iter2 (fun (g, _) mu -> Config.set_period probe_cfg g mu) base periods
  in
  let set_scale scale =
    set_periods (List.map (fun (_, mu) -> mu *. scale) base)
  in
  (* A certified mapping sustains every scale from its exact one,
     max over graphs of MCR(g)/µ(g), up: the periods at that scale,
     rounded up, are re-certified (a latency bound need not hold at a
     shorter period) and replace the probe's own.  Exact certification
     work: callers run it in a ["finish"] span. *)
  let exact_point mapped scale =
    (match on_feasible with None -> () | Some f -> f mapped);
    let probed = List.map (fun (g, _) -> Config.period probe_cfg g) base in
    let ratio (g, mu) =
      Option.map
        (fun c -> Rat.div c.Certify.ratio (Rat.of_float mu))
        (Certify.max_cycle_ratio probe_cfg g mapped)
    in
    match
      List.fold_left
        (fun acc gm ->
          Option.bind acc (fun q -> Option.map (Rat.max q) (ratio gm)))
        (Some Rat.zero) base
    with
    | Some q when Rat.sign q > 0 ->
      let periods =
        List.map (fun (_, mu) -> float_up (Rat.mul (Rat.of_float mu) q)) base
      in
      set_periods periods;
      if Certify.certified (Certify.check probe_cfg mapped) then
        (float_up q, periods)
      else (scale, probed)
    | _ -> (scale, probed)
  in
  (* The min-period optimum is a mapping at the bound [s] already:
     its budgets rounded up (which never slows an SRDF, and (9)
     reserves the granule) with every buffer at its cap (the form fixes
     δ′ = cap − ι).  Certified at s·(1 + [first_step]), whose margin
     absorbs the solver's accuracy, it is the answer without a probe.
     A row the form leaves out (memory) or one the rounding breaks
     (latency) refutes it, and the probes take over. *)
  let bound_point s budget =
    let scale = s *. (1.0 +. first_step) in
    set_scale scale;
    let space b =
      float_of_int
        (Option.get (Config.max_capacity probe_cfg b)
        - Config.initial_tokens probe_cfg b)
    in
    Obs.Ctx.with_span obs "finish" @@ fun () ->
    match Mapping.round_and_certify ~fault ?obs probe_cfg ~budget ~space with
    | Ok (mapped, c) when Certify.certified c -> Some (exact_point mapped scale)
    | Ok _ | Error _ -> None
  in
  (* The warm chain: each probe starts from the optimum of the latest
     earlier probe that reached one (only the periods differ between
     probes, so that point is the closest seed there is), and the first
     runs cold.  The chain lives and dies with this one search, so the probes' seeds
     are a pure function of [cfg] and the probe sequence. *)
  let seed = ref None and failed = ref None in
  let fail e = if !failed = None then failed := Some e in
  (* [Some point] for a probe whose mapping is certified. *)
  let feasible scale =
    (match on_probe with None -> () | Some f -> f scale);
    set_scale scale;
    match Mapping.solve ?deadline ?warm:!seed ~fault ?obs probe_cfg with
    | Ok r ->
      if Option.is_some r.Mapping.warm then seed := r.Mapping.warm;
      if Certify.certified r.Mapping.certificate then
        Some
          (Obs.Ctx.with_span obs "finish" (fun () ->
               exact_point r.Mapping.mapped scale))
      else None
    | Error (Mapping.Solver_failure _ as e) ->
      (* A solver failure is not an infeasibility verdict: the sweep
         reports a broken probe apart from a genuine dead end. *)
      fail e;
      None
    | Error (Mapping.Timed_out _ as e) ->
      fail e;
      raise Probe_expired
    | Error (Mapping.Infeasible _) -> None
  in
  (* Bisect between a failed probe (or the bound) [lo] and the
     certified point [hi]; every certified probe moves [hi] down to its
     mapping's exact scale. *)
  let rec bisect lo ((h, _) as hi) iters =
    if iters = 0 || h -. lo <= tolerance *. h then Some hi
    else
      let mid = 0.5 *. (lo +. h) in
      match feasible mid with
      | Some hi -> bisect lo hi (iters - 1)
      | None -> bisect mid hi (iters - 1)
  in
  (* Gallop up from [bound]: probe bound·(1 + ε), ε doubling from
     [first_step], until a probe is certified or would reach [hi];
     probes at or below a failed one ([lo]) are skipped. *)
  let rec gallop bound lo step hi =
    let scale = bound *. (1.0 +. step) in
    if scale <= lo then gallop bound lo (2.0 *. step) hi
    else
      match hi with
      | Some ((h, _) as hi) when scale >= h -> bisect lo hi 60
      | None when scale > max_scale -> None
      | _ -> (
        match feasible scale with
        | Some hi -> bisect lo hi 60
        | None -> gallop bound scale (2.0 *. step) hi)
  in
  (* With no bound, the period can never drop below the largest WCET. *)
  let wcet_bound () =
    List.fold_left
      (fun acc w ->
        let mu = Config.period cfg (Config.task_graph cfg w) in
        Float.max acc (Config.wcet cfg w /. mu))
      1e-9 (Config.all_tasks cfg)
  in
  let run () =
    let bound = period_bound ?deadline ?obs probe_cfg in
    let lo = match bound with Some (s, _) -> s | None -> wcet_bound () in
    (* The bound's optimum answers unless a buffer is uncapped (its
       space is no variable of the form) or the plan faults the first
       ladder attempt, which the probes exist to exercise. *)
    let hi =
      match bound with
      | Some (s, budget)
        when (not (Robust.Fault.covers fault ~attempt:1))
             && List.for_all
                  (fun b -> Option.is_some (Config.max_capacity cfg b))
                  (Config.all_buffers cfg) ->
        bound_point s budget
      | _ -> None
    in
    (* A certified bound point lies at or below s·(1 + [first_step]),
       within the bisection's width of the bound: it is the answer. *)
    if Option.is_some hi then hi
    else if Option.is_some bound && lo >= 1.0 then
      (* The cold probe at the unscaled period, unless the bound rules
         it out: a certified answer caps the gallop, and its optimum
         seeds the probes near the bound, which stall more often
         cold. *)
      gallop lo lo first_step None
    else
      match feasible 1.0 with
      | Some _ as hi -> gallop lo lo first_step hi
      | None -> gallop lo (Float.max lo 1.0) first_step None
  in
  (* No mapping at any period, and none to probe for. *)
  if Option.is_some (Mapping.capped_below_tokens cfg) then Ok None
  else
    match ((try run () with Probe_expired -> None), !failed) with
    | Some point, _ -> Ok (Some point)
    | None, Some e -> Error e
    | None, None -> Ok None

let min_period_scale ?fault ?obs ?on_probe ?on_feasible cfg =
  match search ?fault ?obs ?on_probe ?on_feasible cfg with
  | Ok (Some (s, _)) -> Some s
  | Ok None | Error _ -> None

type curve_point =
  { cap : int; outcome : (float option, Mapping.error) Stdlib.result }

let curve_points points =
  List.filter_map
    (fun p ->
      match p.outcome with Ok (Some period) -> Some (p.cap, period) | _ -> None)
    points

(* A mapping certified under cap j keeps every buffer within any larger
   cap, so each feasible cap reports the best period of the swept caps
   at or below it.  A pure pass over the search results: the journal
   keeps each cap's own point, so pool sizes and resumes see the same
   curve. *)
let envelope points =
  List.map
    (fun p ->
      match p.outcome with
      | Ok (Some period) ->
        let best =
          List.fold_left
            (fun acc q ->
              match q.outcome with
              | Ok (Some period) when q.cap <= p.cap -> Float.min acc period
              | _ -> acc)
            period points
        in
        { p with outcome = Ok (Some best) }
      | Ok None | Error _ -> p)
    points

(* Journal payload of one curve point (docs/formats.md).  A timed-out
   candidate is deliberately not journaled — a timeout is a property of
   this run's deadline, not of the instance, so a resume retries it. *)
let encode_point p =
  match p.outcome with
  | Ok (Some period) -> Some ("period " ^ Durability.float_to_token period)
  | Ok None -> Some "infeasible"
  | Error (Mapping.Timed_out _) -> None
  | Error e -> Some (Printf.sprintf "skip %S" (Mapping.label e))

let decode_point cap payload =
  if String.equal payload "infeasible" then
    Some { cap; outcome = Ok None }
  else
    match
      let ib = Scanf.Scanning.from_string payload in
      match Durability.scan_token ib with
      | "period" ->
        let period = Durability.scan_float ib in
        (* Older journals end a point with a [cert] token. *)
        (match Durability.scan_token ib with
        | "" | "cert" -> ()
        | _ -> raise (Scanf.Scan_failure "malformed period record"));
        Some { cap; outcome = Ok (Some period) }
      | "skip" ->
        (* Only the cause is journaled: a restored skip has no detail. *)
        Mapping.failure_of_name (Durability.scan_quoted ib)
        |> Option.map (fun cause -> { cap; outcome = Mapping.fail cause "" })
      | _ -> None
    with
    | v -> v
    | exception (Scanf.Scan_failure _ | Failure _ | End_of_file) -> None

let throughput_curve ?fault ?pool ?deadline ?candidate_deadline
    ?journal ?cancel ?obs ?on_progress cfg ~caps =
  let fault = match fault with Some f -> f | None -> Robust.Fault.of_env () in
  let caps = Array.of_list caps in
  (* Each candidate searches on its own clone with its own slice of the
     fault plan. *)
  let solve_cap ~deadline index =
    let cap = caps.(index) in
    let capped = Config.copy cfg in
    List.iter
      (fun b -> Config.set_max_capacity capped b (Some cap))
      (Config.all_buffers capped);
    (* The search solves this cap's bound cold; its first probe, if
       any, runs cold and seeds the next one, and so on down the
       candidate's own probe sequence: no seed crosses candidates, so
       the point is bit-identical however the sweep is scheduled or
       resumed.  [search] accepts only certified probes, and the period
       is the one the accepted mapping is certified at. *)
    let outcome =
      search ~deadline ?obs
        ~fault:(Robust.Fault.for_candidate fault ~index)
        capped
      |> Result.map (function Some (_, period :: _) -> Some period | _ -> None)
    in
    { cap; outcome }
  in
  let results, _ =
    Durable.Sweep.run ?pool ?journal ?obs ?deadline ?candidate_deadline ?cancel
      ?on_progress ~encode:encode_point
      ~decode:(fun i payload -> decode_point caps.(i) payload)
      ~verdict:(fun p ->
        match p.outcome with
        | Ok (Some _) -> "feasible"
        | Ok None -> "infeasible"
        | Error (Mapping.Solver_failure _) -> "skipped"
        | Error e -> Mapping.label e)
      ~failed:(fun i e -> { cap = caps.(i); outcome = Mapping.of_exn e })
      ~n:(Array.length caps) solve_cap
  in
  envelope (List.filter_map Fun.id (Array.to_list results))
