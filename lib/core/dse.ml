module Config = Taskgraph.Config
module Rat = Exact.Rat

(* The bound mapping is certified this far above the min-period
   optimum: the margin absorbs the solver's accuracy. *)
let margin = 5e-5

(* The smallest float at or above [q]. *)
let float_up q =
  let rec up f =
    if Rat.compare (Rat.of_float f) q < 0 then up (Float.succ f) else f
  in
  up (Rat.to_float q)

(* Lower the caps of every memory whose buffers, each at its cap, would
   overfill it: one container at a time, from the buffer with the
   largest ζ·cap (the lowest id on ties), never below max(1, ι), the
   least capacity whose token cycle does not deadlock.  [false] when
   even those floors overfill a memory: no mapping exists then. *)
let fit_memories cfg =
  let cap b = Option.get (Config.max_capacity cfg b) in
  let size b = Config.container_size cfg b * cap b in
  let lowerable b = cap b > Int.max 1 (Config.initial_tokens cfg b) in
  let larger b c =
    size b > size c
    || (size b = size c && Config.buffer_id b < Config.buffer_id c)
  in
  List.for_all
    (fun m ->
      let bufs = Config.buffers_in cfg m in
      let rec fit used =
        used <= Config.memory_capacity cfg m
        ||
        match List.filter lowerable bufs with
        | [] -> false
        | b :: rest ->
          let b =
            List.fold_left (fun b c -> if larger c b then c else b) b rest
          in
          Config.set_max_capacity cfg b (Some (cap b - 1));
          fit (used - Config.container_size cfg b)
      in
      fit (List.fold_left (fun acc b -> acc + size b) 0 bufs))
    (Config.memories cfg)

(* The solve behind [min_period_scale]: the scale and the periods, one
   per graph in [Config.graphs] order, at which the mapping behind it
   is certified; [Ok None] when no mapping exists at any period. *)
let search ?deadline ?fault ?obs ?on_feasible cfg =
  let fault = match fault with Some f -> f | None -> Robust.Fault.of_env () in
  (match
     List.find_opt
       (fun b -> Option.is_none (Config.max_capacity cfg b))
       (Config.all_buffers cfg)
   with
  | Some b ->
    invalid_arg
      (Printf.sprintf "Dse: buffer %s has no capacity cap"
         (Config.buffer_name cfg b))
  | None -> ());
  (* One clone carries the lowered caps and the periods of the point
     being certified; [cfg] itself is never mutated. *)
  let point_cfg = Config.copy cfg in
  let base =
    List.map (fun g -> (g, Config.period cfg g)) (Config.graphs cfg)
  in
  let set_periods periods =
    List.iter2 (fun (g, _) mu -> Config.set_period point_cfg g mu) base periods
  in
  (* A certified mapping sustains every scale from its exact one,
     max over graphs of MCR(g)/µ(g), up: the periods at that scale,
     rounded up, are re-certified (a latency bound need not hold at a
     shorter period) and replace the point's own, [scale]. *)
  let exact_point mapped scale =
    (match on_feasible with None -> () | Some f -> f mapped);
    let own = List.map (fun (g, _) -> Config.period point_cfg g) base in
    let ratio (g, mu) =
      Option.map
        (fun c -> Rat.div c.Certify.ratio (Rat.of_float mu))
        (Certify.max_cycle_ratio point_cfg g mapped)
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
      if Certify.certified (Certify.check point_cfg mapped) then
        (float_up q, periods)
      else (scale, own)
    | _ -> (scale, own)
  in
  (* The min-period optimum [s] is a mapping at the bound already: its
     budgets rounded up (which never slows an SRDF, and (9) reserves
     the granule) with every buffer at its cap (the form fixes
     δ′ = cap − ι), certified at s·(1 + [margin]).  A latency row the
     rounding breaks refutes it: no other mapping is tried. *)
  let bound_point bound (r : Conic.Model.result) _ _ =
    let s = r.Conic.Model.value bound.Socp_builder.scale_var in
    if not (Float.is_finite s && s > 0.0) then
      Mapping.fail Mapping.Non_finite
        (Printf.sprintf "min-period scale %h" s)
    else
      let scale = s *. (1.0 +. margin) in
      set_periods (List.map (fun (_, mu) -> mu *. scale) base);
      let space b =
        float_of_int
          (Option.get (Config.max_capacity point_cfg b)
          - Config.initial_tokens point_cfg b)
      in
      let budget w =
        r.Conic.Model.value (bound.Socp_builder.bound_budget_var w)
      in
      match Mapping.round_and_certify ~fault ?obs point_cfg ~budget ~space with
      | Ok (mapped, c) when Certify.certified c ->
        Ok (Some (exact_point mapped scale))
      | Ok (_, c) ->
        Mapping.fail Mapping.Uncertifiable
          ("the rounded min-period optimum is refuted: " ^ Certify.summary c)
      | Error detail -> Mapping.fail Mapping.Non_finite detail
  in
  (* The simplex rung's mapping is certified at the stated periods,
     scale 1, and sustains its own exact scale. *)
  let fallback_point (tp : Two_phase.result) _ _ =
    Ok
      (Some
         (Obs.Ctx.with_span obs "finish" (fun () ->
              exact_point tp.Two_phase.mapped 1.0)))
  in
  (* No mapping at any period: a cap below a buffer's initial tokens,
     or a memory that even the least caps overfill. *)
  if
    Option.is_some (Mapping.capped_below_tokens cfg)
    || not (fit_memories point_cfg)
  then Ok None
  else
    let bound = Socp_builder.build_min_period point_cfg in
    match
      Mapping.climb ?deadline ~fault ?obs point_cfg
        bound.Socp_builder.bound_model ~optimal:(bound_point bound)
        ~fallback:fallback_point
    with
    | Error (Mapping.Infeasible _) -> Ok None
    | verdict -> verdict

let min_period_scale ?fault ?obs ?on_feasible cfg =
  match search ?fault ?obs ?on_feasible cfg with
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
   at or below it.  A pure pass over the caps' own points: the journal
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
  (* Each candidate solves on its own clone, cold, with its own slice of
     the fault plan: no seed crosses candidates, so the point is
     bit-identical however the sweep is scheduled or resumed.  The
     period is the one the cap's certified mapping is certified at. *)
  let solve_cap ~deadline index =
    let cap = caps.(index) in
    let capped = Config.copy cfg in
    List.iter
      (fun b -> Config.set_max_capacity capped b (Some cap))
      (Config.all_buffers capped);
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
