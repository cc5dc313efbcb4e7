module Config = Taskgraph.Config

(* Raised inside a bisection when a probe times out: once the deadline
   is blown, further probes could only time out too, so the search is
   abandoned wholesale instead of bisecting on garbage. *)
exception Probe_expired

(* The bisection stops at this relative width. *)
let tolerance = 1e-4

let min_period_scale ?params ?policy ?obs ?on_probe ?on_failure ?on_feasible
    cfg =
  (* The context rides inside the params so every probe's [Mapping.solve]
     sees it without further plumbing. *)
  let params = Durability.params ?obs params in
  (* One mutable clone serves every probe: only the periods change
     between probes, so rescaling them in place beats rebuilding the
     whole configuration each time. *)
  let probe_cfg = Config.copy cfg in
  let base = List.map (fun g -> (g, Config.period cfg g)) (Config.graphs cfg) in
  (* The warm chain: each probe starts from the optimum of the latest
     earlier probe that reached one (only the periods differ between
     probes, so that point is the closest seed there is), and the first
     from whatever warm point [params] carries — none in a sweep.  The
     chain lives and dies with this one search, so the probes' seeds
     are a pure function of [cfg] and the probe sequence. *)
  let seed = ref None in
  let feasible scale =
    (match on_probe with None -> () | Some f -> f scale);
    List.iter (fun (g, mu) -> Config.set_period probe_cfg g (mu *. scale)) base;
    let params = Durability.params ?warm:!seed params in
    match Mapping.solve ?params ?policy probe_cfg with
    | Ok r ->
      if Option.is_some r.Mapping.warm then seed := r.Mapping.warm;
      let ok = Certify.certified r.Mapping.certificate in
      if ok then (match on_feasible with None -> () | Some f -> f r);
      ok
    | Error (Mapping.Solver_failure _ as e) ->
      (* A solver failure is not an infeasibility verdict: let callers
         (the sweep drivers) distinguish a broken probe from a genuine
         dead end before treating the whole search as infeasible. *)
      (match on_failure with None -> () | Some f -> f e);
      false
    | Error (Mapping.Timed_out _ as e) ->
      (match on_failure with None -> () | Some f -> f e);
      raise Probe_expired
    | Error _ -> false
  in
  (* Grow until feasible, then bisect. *)
  let rec find_hi scale =
    if scale > 1000.0 then None
    else if feasible scale then Some scale
    else find_hi (2.0 *. scale)
  in
  let search () =
    match find_hi 1.0 with
    | None -> None
    | Some hi0 ->
      let rec bisect lo hi iters =
        if iters = 0 || hi -. lo <= tolerance *. hi then hi
        else begin
          let mid = 0.5 *. (lo +. hi) in
          if mid <= 0.0 then hi
          else if feasible mid then bisect lo mid (iters - 1)
          else bisect mid hi (iters - 1)
        end
      in
      (* The period can never drop below the largest WCET; anchor the
         lower end there instead of zero to save probes. *)
      let lo0 =
        List.fold_left
          (fun acc w ->
            let mu = Config.period cfg (Config.task_graph cfg w) in
            Float.max acc (Config.wcet cfg w /. mu))
          1e-9 (Config.all_tasks cfg)
      in
      Some (bisect (Float.min lo0 hi0) hi0 60)
  in
  match search () with v -> v | exception Probe_expired -> None

type curve_point = {
  cap : int;
  outcome : (float option, string) Stdlib.result;
  certified : bool;
}

let curve_points points =
  List.filter_map
    (fun p ->
      match p.outcome with Ok (Some period) -> Some (p.cap, period) | _ -> None)
    points

let curve_skipped points =
  List.filter_map
    (fun p ->
      match p.outcome with Error reason -> Some (p.cap, reason) | Ok _ -> None)
    points

(* Journal payload of one curve point (docs/formats.md).  A timed-out
   candidate is deliberately not journaled — a timeout is a property of
   this run's deadline, not of the instance, so a resume retries it. *)
let encode_point p =
  match p.outcome with
  | Ok (Some period) ->
    Some
      (String.concat " "
         [
           "period";
           Durability.float_to_token period;
           (if p.certified then "cert" else "uncert");
         ])
  | Ok None -> Some "infeasible"
  | Error reason ->
    if String.equal reason "timed out" then None
    else Some (Printf.sprintf "skip %S" reason)

let decode_point cap payload =
  if String.equal payload "infeasible" then
    Some { cap; outcome = Ok None; certified = false }
  else
    match
      let ib = Scanf.Scanning.from_string payload in
      match Durability.scan_token ib with
      | "period" ->
        let period = Durability.scan_float ib in
        let certified =
          match Durability.scan_token ib with
          | "cert" -> true
          | "uncert" -> false
          | _ -> raise (Scanf.Scan_failure "malformed certification token")
        in
        Some { cap; outcome = Ok (Some period); certified }
      | "skip" ->
        Some { cap; outcome = Error (Durability.scan_quoted ib); certified = false }
      | _ -> None
    with
    | v -> v
    | exception (Scanf.Scan_failure _ | Failure _ | End_of_file) -> None

let throughput_curve ?params ?policy ?pool ?deadline ?candidate_deadline
    ?journal ?cancel ?obs ?on_progress cfg ~caps =
  let policy = Durability.candidate_policy policy in
  let caps = Array.of_list caps in
  (* Each candidate bisects on its own clone with its own slice of the
     fault plan. *)
  let solve_cap ~deadline index =
    let cap = caps.(index) in
    let failed = ref None in
    let on_failure e =
      if !failed = None then failed := Some (Mapping.short_reason e)
    in
    let capped = Config.copy cfg in
    List.iter
      (fun b -> Config.set_max_capacity capped b (Some cap))
      (Config.all_buffers capped);
    (* The bisection's first probe (this cap, unscaled period) runs
       cold and seeds the next one, and so on down the candidate's own
       probe sequence: no seed crosses candidates, so the point is
       bit-identical however the sweep is scheduled or resumed. *)
    let params = Durability.params ~deadline ?obs params in
    match
      ( min_period_scale ?params ~policy:(policy index) ~on_failure capped,
        Config.graphs capped )
    with
    | Some scale, g :: _ ->
      (* [min_period_scale] accepts only certified probes, and the
         bisection only ever narrows onto accepted ones. *)
      {
        cap;
        outcome = Ok (Some (Config.period capped g *. scale));
        certified = true;
      }
    | _ -> (
      (* No feasible scale: an infeasibility verdict everywhere is the
         honest [Ok None]; a failing solver is a skip with a reason. *)
      match !failed with
      | Some reason -> { cap; outcome = Error reason; certified = false }
      | None -> { cap; outcome = Ok None; certified = false })
  in
  let results, _ =
    Durable.Sweep.run ?pool ?journal ?obs ?deadline ?candidate_deadline ?cancel
      ?on_progress ~encode:encode_point
      ~decode:(fun i payload -> decode_point caps.(i) payload)
      ~verdict:(fun p ->
        match p.outcome with
        | Ok (Some _) -> "feasible"
        | Ok None -> "infeasible"
        | Error "timed out" -> "timed out"
        | Error _ -> "skipped")
      ~failed:(fun i e ->
        {
          cap = caps.(i);
          outcome = Error ("uncaught exception: " ^ Printexc.to_string e);
          certified = false;
        })
      ~n:(Array.length caps) solve_cap
  in
  List.filter_map Fun.id (Array.to_list results)
