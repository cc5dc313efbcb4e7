module Config = Taskgraph.Config

type strategy = Exhaustive of int | Greedy_utilization | First_fit

type outcome = {
  config : Config.t;
  assignment : (string * string) list;
  result : Mapping.result;
  explored : int;
}

let rebind_full cfg ~assign_proc ~assign_mem =
  let fresh = Config.create ~granularity:(Config.granularity cfg) () in
  let procs =
    List.map
      (fun p ->
        ( Config.proc_id p,
          Config.add_processor fresh ~name:(Config.proc_name cfg p)
            ~replenishment:(Config.replenishment cfg p)
            ~overhead:(Config.overhead cfg p) () ))
      (Config.processors cfg)
  in
  let mems =
    List.map
      (fun m ->
        ( Config.memory_id m,
          Config.add_memory fresh ~name:(Config.memory_name cfg m)
            ~capacity:(Config.memory_capacity cfg m) ))
      (Config.memories cfg)
  in
  List.iter
    (fun g ->
      let fresh_g =
        Config.add_graph fresh ~name:(Config.graph_name cfg g)
          ~period:(Config.period cfg g)
          ?latency_bound:(Config.latency_bound cfg g) ()
      in
      let tasks =
        List.map
          (fun w ->
            let p = assign_proc w in
            ( Config.task_id w,
              Config.add_task fresh fresh_g ~name:(Config.task_name cfg w)
                ~proc:(List.assoc (Config.proc_id p) procs)
                ~wcet:(Config.wcet cfg w)
                ~weight:(Config.task_weight cfg w) () ))
          (Config.tasks cfg g)
      in
      List.iter
        (fun b ->
          ignore
            (Config.add_buffer fresh fresh_g
               ~name:(Config.buffer_name cfg b)
               ~src:(List.assoc (Config.task_id (Config.buffer_src cfg b)) tasks)
               ~dst:(List.assoc (Config.task_id (Config.buffer_dst cfg b)) tasks)
               ~memory:(List.assoc (Config.memory_id (assign_mem b)) mems)
               ~container_size:(Config.container_size cfg b)
               ~initial_tokens:(Config.initial_tokens cfg b)
               ~weight:(Config.buffer_weight cfg b)
               ?max_capacity:(Config.max_capacity cfg b) ()))
        (Config.buffers cfg g))
    (Config.graphs cfg);
  fresh

let rebind cfg ~assign =
  rebind_full cfg ~assign_proc:assign ~assign_mem:(Config.buffer_memory cfg)

let assignment_of cfg assign =
  List.map
    (fun w -> (Config.task_name cfg w, Config.proc_name cfg (assign w)))
    (Config.all_tasks cfg)

(* Reserved capacity of a task on any processor: its minimal budget
   (̺·χ/µ rounded to the granularity) plus the granule Constraint (9)
   pre-reserves, computed against the candidate processor. *)
let reservation cfg w p =
  let mu = Config.period cfg (Config.task_graph cfg w) in
  let need = Config.replenishment cfg p *. Config.wcet cfg w /. mu in
  Rounding.round_budget ~granularity:(Config.granularity cfg) need
  +. Config.granularity cfg

(* Greedy placements return an assignment table keyed by task id, or
   None when some task fits nowhere. *)
let place cfg ~order =
  let procs = Array.of_list (Config.processors cfg) in
  let slack =
    Array.map
      (fun p -> Config.replenishment cfg p -. Config.overhead cfg p)
      procs
  in
  let table = Hashtbl.create 16 in
  let ok = ref true in
  List.iter
    (fun w ->
      match order w procs slack with
      | Some i ->
        slack.(i) <- slack.(i) -. reservation cfg w procs.(i);
        Hashtbl.replace table (Config.task_id w) procs.(i)
      | None -> ok := false)
    (let tasks = Config.all_tasks cfg in
     tasks);
  if !ok then Some (fun w -> Hashtbl.find table (Config.task_id w)) else None

let greedy_utilization cfg =
  let utilisation w =
    Config.wcet cfg w /. Config.period cfg (Config.task_graph cfg w)
  in
  let sorted =
    List.sort
      (fun w1 w2 -> compare (utilisation w2) (utilisation w1))
      (Config.all_tasks cfg)
  in
  (* Place heavy tasks first, each on the processor with most slack
     remaining after its reservation. *)
  let procs = Array.of_list (Config.processors cfg) in
  let slack =
    Array.map
      (fun p -> Config.replenishment cfg p -. Config.overhead cfg p)
      procs
  in
  let table = Hashtbl.create 16 in
  let ok = ref true in
  List.iter
    (fun w ->
      let best = ref (-1) and best_slack = ref neg_infinity in
      Array.iteri
        (fun i p ->
          let r = reservation cfg w p in
          if slack.(i) -. r >= 0.0 && slack.(i) -. r > !best_slack then begin
            best := i;
            best_slack := slack.(i) -. r
          end)
        procs;
      if !best < 0 then ok := false
      else begin
        slack.(!best) <- slack.(!best) -. reservation cfg w procs.(!best);
        Hashtbl.replace table (Config.task_id w) procs.(!best)
      end)
    sorted;
  if !ok then Some (fun w -> Hashtbl.find table (Config.task_id w)) else None

let first_fit cfg =
  place cfg ~order:(fun w procs slack ->
      let found = ref None in
      Array.iteri
        (fun i p ->
          if !found = None && slack.(i) -. reservation cfg w p >= 0.0 then
            found := Some i)
        procs;
      !found)

let solve_binding ?params cfg assign =
  let candidate = rebind cfg ~assign in
  match Mapping.solve ?params candidate with
  | Ok r when Certify.certified r.Mapping.certificate -> Some (candidate, r)
  | Ok _ | Error _ -> None

let optimize ?(strategy = Greedy_utilization) ?params cfg =
  let tasks = Array.of_list (Config.all_tasks cfg) in
  let procs = Array.of_list (Config.processors cfg) in
  if Array.length procs = 0 then Error "no processors"
  else begin
    match strategy with
    | Greedy_utilization | First_fit -> begin
      let placement =
        match strategy with
        | Greedy_utilization -> greedy_utilization cfg
        | First_fit | Exhaustive _ -> first_fit cfg
      in
      match placement with
      | None -> Error "no processor can host some task's minimal budget"
      | Some assign -> begin
        match solve_binding ?params cfg assign with
        | None -> Error "the heuristic binding is infeasible"
        | Some (config, result) ->
          Ok
            {
              config;
              assignment = assignment_of cfg assign;
              result;
              explored = 1;
            }
      end
    end
    | Exhaustive limit ->
      if limit < 1 then Error "exhaustive search limit must be >= 1"
      else begin
        let n = Array.length tasks and k = Array.length procs in
        let best = ref None in
        let explored = ref 0 in
        (* Enumerate assignments as base-k counters over the tasks,
           stopping at the limit. *)
        let assignment = Array.make n 0 in
        let continue_ = ref true in
        while !continue_ && !explored < limit do
          incr explored;
          let assign w =
            (* Tasks array order matches all_tasks order. *)
            let rec index i =
              if Config.task_id tasks.(i) = Config.task_id w then i
              else index (i + 1)
            in
            procs.(assignment.(index 0))
          in
          (match solve_binding ?params cfg assign with
          | Some (config, result) ->
            let better =
              match !best with
              | None -> true
              | Some (_, _, prev) ->
                result.Mapping.rounded_objective
                < prev.Mapping.rounded_objective -. 1e-9
            in
            if better then
              best := Some (assignment_of cfg assign, config, result)
          | None -> ());
          (* Increment the counter. *)
          let rec bump i =
            if i >= n then continue_ := false
            else if assignment.(i) + 1 < k then assignment.(i) <- assignment.(i) + 1
            else begin
              assignment.(i) <- 0;
              bump (i + 1)
            end
          in
          bump 0
        done;
        match !best with
        | None -> Error "no feasible binding found within the search limit"
        | Some (assignment, config, result) ->
          Ok { config; assignment; result; explored = !explored }
      end
  end

(* ------------------------------------------------------------------ *)
(* Buffer-to-memory binding                                            *)
(* ------------------------------------------------------------------ *)

let rebind_memories cfg ~assign =
  rebind_full cfg ~assign_proc:(Config.task_proc cfg) ~assign_mem:assign

let memory_assignment_of cfg assign =
  List.map
    (fun b -> (Config.buffer_name cfg b, Config.memory_name cfg (assign b)))
    (Config.all_buffers cfg)

(* Minimal footprint of a buffer in any memory: one container beyond the
   initially filled ones (the reserve Constraint (10) keeps for the
   rounding). *)
let footprint cfg b =
  Config.container_size cfg b * (Config.initial_tokens cfg b + 1)

let place_memories cfg ~heaviest_first ~best_fit =
  let mems = Array.of_list (Config.memories cfg) in
  if Array.length mems = 0 then None
  else begin
    let slack = Array.map (fun m -> Config.memory_capacity cfg m) mems in
    let buffers =
      let all = Config.all_buffers cfg in
      if heaviest_first then
        List.sort (fun b1 b2 -> compare (footprint cfg b2) (footprint cfg b1)) all
      else all
    in
    let table = Hashtbl.create 16 in
    let ok = ref true in
    List.iter
      (fun b ->
        let need = footprint cfg b in
        let chosen = ref (-1) in
        Array.iteri
          (fun i _ ->
            if slack.(i) >= need then
              if best_fit then begin
                if !chosen < 0 || slack.(i) > slack.(!chosen) then chosen := i
              end
              else if !chosen < 0 then chosen := i)
          mems;
        if !chosen < 0 then ok := false
        else begin
          slack.(!chosen) <- slack.(!chosen) - need;
          Hashtbl.replace table (Config.buffer_id b) mems.(!chosen)
        end)
      buffers;
    if !ok then Some (fun b -> Hashtbl.find table (Config.buffer_id b))
    else None
  end

let solve_memory_binding ?params cfg assign =
  let candidate = rebind_memories cfg ~assign in
  match Mapping.solve ?params candidate with
  | Ok r when Certify.certified r.Mapping.certificate -> Some (candidate, r)
  | Ok _ | Error _ -> None

let optimize_memories ?(strategy = Greedy_utilization) ?params cfg =
  let buffers = Array.of_list (Config.all_buffers cfg) in
  let mems = Array.of_list (Config.memories cfg) in
  if Array.length mems = 0 then Error "no memories"
  else begin
    match strategy with
    | Greedy_utilization | First_fit -> begin
      let placement =
        match strategy with
        | Greedy_utilization ->
          place_memories cfg ~heaviest_first:true ~best_fit:true
        | First_fit | Exhaustive _ ->
          place_memories cfg ~heaviest_first:false ~best_fit:false
      in
      match placement with
      | None -> Error "no memory can host some buffer's minimal footprint"
      | Some assign -> begin
        match solve_memory_binding ?params cfg assign with
        | None -> Error "the heuristic memory placement is infeasible"
        | Some (config, result) ->
          Ok
            {
              config;
              assignment = memory_assignment_of cfg assign;
              result;
              explored = 1;
            }
      end
    end
    | Exhaustive limit ->
      if limit < 1 then Error "exhaustive search limit must be >= 1"
      else begin
        let n = Array.length buffers and k = Array.length mems in
        let best = ref None in
        let explored = ref 0 in
        let counter = Array.make n 0 in
        let continue_ = ref true in
        while !continue_ && !explored < limit do
          incr explored;
          let assign b =
            let rec index i =
              if Config.buffer_id buffers.(i) = Config.buffer_id b then i
              else index (i + 1)
            in
            mems.(counter.(index 0))
          in
          (match solve_memory_binding ?params cfg assign with
          | Some (config, result) ->
            let better =
              match !best with
              | None -> true
              | Some (_, _, prev) ->
                result.Mapping.rounded_objective
                < prev.Mapping.rounded_objective -. 1e-9
            in
            if better then
              best := Some (memory_assignment_of cfg assign, config, result)
          | None -> ());
          let rec bump i =
            if i >= n then continue_ := false
            else if counter.(i) + 1 < k then counter.(i) <- counter.(i) + 1
            else begin
              counter.(i) <- 0;
              bump (i + 1)
            end
          in
          bump 0
        done;
        match !best with
        | None -> Error "no feasible memory placement within the search limit"
        | Some (assignment, config, result) ->
          Ok { config; assignment; result; explored = !explored }
      end
  end
