module Config = Taskgraph.Config
module Srdf = Dataflow.Srdf
module Analysis = Dataflow.Analysis

type t = {
  srdf : Srdf.t;
  actor1 : Config.task -> Srdf.actor;
  actor2 : Config.task -> Srdf.actor;
  self_edge : Config.task -> Srdf.edge;
  transition_edge : Config.task -> Srdf.edge;
  data_edge : Config.buffer -> Srdf.edge;
  space_edge : Config.buffer -> Srdf.edge;
}

let build cfg g ~budget ~capacity =
  let srdf = Srdf.create () in
  let a1 = Hashtbl.create 16
  and a2 = Hashtbl.create 16
  and selfe = Hashtbl.create 16
  and trans = Hashtbl.create 16
  and datae = Hashtbl.create 16
  and spacee = Hashtbl.create 16 in
  List.iter
    (fun w ->
      let p = Config.task_proc cfg w in
      let repl = Config.replenishment cfg p in
      let beta = budget w in
      if beta <= 0.0 || beta > repl then
        invalid_arg
          (Printf.sprintf
             "Dataflow_model.build: budget %g of task %s outside (0, %g]" beta
             (Config.task_name cfg w) repl);
      let name = Config.task_name cfg w in
      let v1 =
        Srdf.add_actor srdf ~name:(name ^ ".1") ~duration:(repl -. beta)
      in
      let v2 =
        Srdf.add_actor srdf ~name:(name ^ ".2")
          ~duration:(repl *. Config.wcet cfg w /. beta)
      in
      Hashtbl.replace a1 (Config.task_id w) v1;
      Hashtbl.replace a2 (Config.task_id w) v2;
      Hashtbl.replace trans (Config.task_id w)
        (Srdf.add_edge srdf ~src:v1 ~dst:v2 ~tokens:0);
      Hashtbl.replace selfe (Config.task_id w)
        (Srdf.add_edge srdf ~src:v2 ~dst:v2 ~tokens:1))
    (Config.tasks cfg g);
  List.iter
    (fun b ->
      let src = Config.buffer_src cfg b and dst = Config.buffer_dst cfg b in
      let iota = Config.initial_tokens cfg b in
      let gamma = capacity b in
      if gamma < iota then
        invalid_arg
          (Printf.sprintf
             "Dataflow_model.build: capacity %d of buffer %s below its %d \
              initially filled containers"
             gamma
             (Config.buffer_name cfg b)
             iota);
      let src2 = Hashtbl.find a2 (Config.task_id src)
      and dst1 = Hashtbl.find a1 (Config.task_id dst)
      and dst2 = Hashtbl.find a2 (Config.task_id dst)
      and src1 = Hashtbl.find a1 (Config.task_id src) in
      Hashtbl.replace datae (Config.buffer_id b)
        (Srdf.add_edge srdf ~src:src2 ~dst:dst1 ~tokens:iota);
      Hashtbl.replace spacee (Config.buffer_id b)
        (Srdf.add_edge srdf ~src:dst2 ~dst:src1 ~tokens:(gamma - iota)))
    (Config.buffers cfg g);
  {
    srdf;
    actor1 = (fun w -> Hashtbl.find a1 (Config.task_id w));
    actor2 = (fun w -> Hashtbl.find a2 (Config.task_id w));
    self_edge = (fun w -> Hashtbl.find selfe (Config.task_id w));
    transition_edge = (fun w -> Hashtbl.find trans (Config.task_id w));
    data_edge = (fun b -> Hashtbl.find datae (Config.buffer_id b));
    space_edge = (fun b -> Hashtbl.find spacee (Config.buffer_id b));
  }

let throughput_ok cfg g (mapped : Config.mapped) =
  match
    build cfg g ~budget:mapped.Config.budget ~capacity:mapped.Config.capacity
  with
  | model ->
    Analysis.pas_exists model.srdf ~period:(Config.period cfg g)
  | exception Invalid_argument _ -> false

let chain_ends cfg g =
  let tasks = Config.tasks cfg g and buffers = Config.buffers cfg g in
  let has_input w = List.exists (fun b -> Config.buffer_dst cfg b = w) buffers in
  let has_output w = List.exists (fun b -> Config.buffer_src cfg b = w) buffers in
  match
    ( List.filter (fun w -> not (has_input w)) tasks,
      List.filter (fun w -> not (has_output w)) tasks )
  with
  | [ src ], [ snk ] -> Some (src, snk)
  | _ -> None

(* From the activation of [src] to the completion of [snk] under the
   earliest PAS; [None] when no PAS exists. *)
let pas_latency cfg g (mapped : Config.mapped) (src, snk) =
  match
    build cfg g ~budget:mapped.Config.budget ~capacity:mapped.Config.capacity
  with
  | exception Invalid_argument _ -> None
  | model -> begin
    let srdf = model.srdf in
    match Analysis.pas_start_times srdf ~period:(Config.period cfg g) with
    | None -> None
    | Some s ->
      let v_src = model.actor1 src and v_dst = model.actor2 snk in
      Some
        (s.(Srdf.actor_id v_dst) +. Srdf.duration srdf v_dst
        -. s.(Srdf.actor_id v_src))
  end

let chain_latency cfg g mapped =
  match chain_ends cfg g with
  | Some ends -> pas_latency cfg g mapped ends
  | None ->
    invalid_arg
      "Dataflow_model.chain_latency: the graph has no unique source/sink \
       pair"

let verify cfg (mapped : Config.mapped) =
  let problems = ref [] in
  let add v = problems := v :: !problems in
  List.iter
    (fun g ->
      if not (throughput_ok cfg g mapped) then
        add
          (Violation.Throughput
             { graph = Config.graph_name cfg g; period = Config.period cfg g }))
    (Config.graphs cfg);
  List.iter
    (fun p ->
      let used =
        List.fold_left
          (fun acc w -> acc +. mapped.Config.budget w)
          (Config.overhead cfg p)
          (Config.tasks_on cfg p)
      in
      if used > Config.replenishment cfg p +. 1e-9 then
        add
          (Violation.Processor_capacity
             {
               proc = Config.proc_name cfg p;
               used;
               capacity = Config.replenishment cfg p;
             }))
    (Config.processors cfg);
  List.iter
    (fun m ->
      let used =
        List.fold_left
          (fun acc b ->
            acc + (mapped.Config.capacity b * Config.container_size cfg b))
          0 (Config.buffers_in cfg m)
      in
      if used > Config.memory_capacity cfg m then
        add
          (Violation.Memory_capacity
             {
               memory = Config.memory_name cfg m;
               used;
               capacity = Config.memory_capacity cfg m;
             }))
    (Config.memories cfg);
  List.iter
    (fun g ->
      match Config.latency_bound cfg g with
      | None -> ()
      | Some bound -> begin
        (* Graphs without a unique source/sink pair go unchecked; no
           PAS: the throughput check already reported the failure. *)
        match Option.bind (chain_ends cfg g) (pas_latency cfg g mapped) with
        | None -> ()
        | Some l ->
          if l > bound +. 1e-6 then
            add
              (Violation.Latency
                 { graph = Config.graph_name cfg g; latency = l; bound })
      end)
    (Config.graphs cfg);
  List.iter
    (fun b ->
      match Config.max_capacity cfg b with
      | Some cap when mapped.Config.capacity b > cap ->
        add
          (Violation.Buffer_bound
             {
               buffer = Config.buffer_name cfg b;
               capacity = mapped.Config.capacity b;
               bound = cap;
             })
      | Some _ | None -> ())
    (Config.all_buffers cfg);
  List.rev !problems

let min_feasible_period cfg g (mapped : Config.mapped) =
  match
    build cfg g ~budget:mapped.Config.budget ~capacity:mapped.Config.capacity
  with
  | exception Invalid_argument _ -> None
  | model -> begin
    (* Howard's policy iteration: faster than the binary search (see
       the mcr ablation), cross-validated against it and against
       Karp's algorithm in the test suite. *)
    match Dataflow.Howard.max_cycle_ratio model.srdf with
    | Analysis.Mcr r -> Some r
    | Analysis.Acyclic -> Some 0.0
    | Analysis.Deadlocked -> None
  end
