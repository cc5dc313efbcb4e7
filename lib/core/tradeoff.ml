module Config = Taskgraph.Config

type point = {
  cap : int;
  result : (Mapping.result, Mapping.error) Stdlib.result;
}

let capacity_sweep ?fault ?pool ?deadline ?candidate_deadline ?journal
    ?cancel ?obs ?on_progress cfg ~buffers ~caps =
  let caps = Array.of_list caps in
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
  Durability.solve_candidates ?fault ?pool ?deadline ?candidate_deadline
    ?journal ?cancel ?obs ?on_progress cfg ~n:(Array.length caps) ~candidate
  |> Array.to_list
  |> List.mapi (fun i -> Option.map (fun result -> { cap = caps.(i); result }))
  |> List.filter_map Fun.id

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
