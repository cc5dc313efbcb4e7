module Config = Taskgraph.Config
module Mapping = Budgetbuf.Mapping

let tolerance = 1e-4

let min_period_scale ?on_probe cfg =
  let probe_cfg = Config.copy cfg in
  let base = List.map (fun g -> (g, Config.period cfg g)) (Config.graphs cfg) in
  let seed = ref None in
  let feasible scale =
    (match on_probe with None -> () | Some f -> f scale);
    List.iter (fun (g, mu) -> Config.set_period probe_cfg g (mu *. scale)) base;
    match Mapping.solve ?warm:!seed ~fault:None probe_cfg with
    | Ok r ->
      if Option.is_some r.Mapping.warm then seed := r.Mapping.warm;
      Budgetbuf.Certify.certified r.Mapping.certificate
    | Error _ -> false
  in
  let rec find_hi scale =
    if scale > 1000.0 then None
    else if feasible scale then Some scale
    else find_hi (2.0 *. scale)
  in
  match find_hi 1.0 with
  | None -> None
  | Some hi0 ->
    let rec bisect lo hi iters =
      if iters = 0 || hi -. lo <= tolerance *. hi then hi
      else
        let mid = 0.5 *. (lo +. hi) in
        if mid <= 0.0 then hi
        else if feasible mid then bisect lo mid (iters - 1)
        else bisect mid hi (iters - 1)
    in
    let lo0 =
      List.fold_left
        (fun acc w ->
          let mu = Config.period cfg (Config.task_graph cfg w) in
          Float.max acc (Config.wcet cfg w /. mu))
        1e-9 (Config.all_tasks cfg)
    in
    Some (bisect (Float.min lo0 hi0) hi0 60)

let min_period cfg ~cap =
  let capped = Config.copy cfg in
  List.iter
    (fun b -> Config.set_max_capacity capped b (Some cap))
    (Config.all_buffers capped);
  match (min_period_scale capped, Config.graphs capped) with
  | Some scale, g :: _ -> Some (Config.period capped g *. scale)
  | _ -> None
