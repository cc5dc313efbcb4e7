(* The float SRDF model and checker of a mapped configuration, kept as
   an oracle: [Budgetbuf.Certify] is the library's one verdict, and the
   tests compare it against this independent float opinion (see
   float_verify.mli). *)

module Config = Taskgraph.Config
module Srdf = Dataflow.Srdf
module Violation = Budgetbuf.Violation

(* The paper's SRDF model (Section II-C) in floats: per task a waiting
   actor v1 (ρ = ̺ − β) and a processing actor v2 (ρ = ̺·χ/β) with a
   zero-token v1 → v2 queue and a one-token self-loop on v2; per buffer
   a data queue (ι tokens) and a space queue (γ − ι).  [None] when the
   model is undefined. *)
type model = {
  srdf : Srdf.t;
  actor1 : Config.task -> Srdf.actor;
  actor2 : Config.task -> Srdf.actor;
}

let model cfg g (mapped : Config.mapped) =
  let srdf = Srdf.create () in
  let a1 = Hashtbl.create 16 and a2 = Hashtbl.create 16 in
  let actor tbl w = Hashtbl.find tbl (Config.task_id w) in
  let valid = ref true in
  List.iter
    (fun w ->
      let repl = Config.replenishment cfg (Config.task_proc cfg w) in
      let beta = mapped.Config.budget w in
      if not (beta > 0.0 && beta <= repl) then valid := false
      else begin
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
        ignore (Srdf.add_edge srdf ~src:v1 ~dst:v2 ~tokens:0);
        ignore (Srdf.add_edge srdf ~src:v2 ~dst:v2 ~tokens:1)
      end)
    (Config.tasks cfg g);
  List.iter
    (fun b ->
      let src = Config.buffer_src cfg b and dst = Config.buffer_dst cfg b in
      let iota = Config.initial_tokens cfg b in
      let gamma = mapped.Config.capacity b in
      if gamma < iota then valid := false
      else if !valid then begin
        ignore
          (Srdf.add_edge srdf ~src:(actor a2 src) ~dst:(actor a1 dst)
             ~tokens:iota);
        ignore
          (Srdf.add_edge srdf ~src:(actor a2 dst) ~dst:(actor a1 src)
             ~tokens:(gamma - iota))
      end)
    (Config.buffers cfg g);
  if !valid then Some { srdf; actor1 = actor a1; actor2 = actor a2 } else None

let throughput_ok cfg g mapped =
  match model cfg g mapped with
  | Some m -> Pas_oracle.pas_exists m.srdf ~period:(Config.period cfg g)
  | None -> false

(* From the activation of [src] to the completion of [snk] under the
   earliest PAS; [None] when no PAS exists. *)
let pas_latency cfg g mapped (src, snk) =
  match model cfg g mapped with
  | None -> None
  | Some m -> (
    match Pas_oracle.pas_start_times m.srdf ~period:(Config.period cfg g) with
    | None -> None
    | Some s ->
      let v_src = m.actor1 src and v_dst = m.actor2 snk in
      Some
        (s.(Srdf.actor_id v_dst) +. Srdf.duration m.srdf v_dst
        -. s.(Srdf.actor_id v_src)))

let chain_latency cfg g mapped =
  match Config.chain_ends cfg g with
  | Some ends -> pas_latency cfg g mapped ends
  | None ->
    invalid_arg
      "Float_verify.chain_latency: the graph has no unique source/sink \
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
        match Option.bind (Config.chain_ends cfg g) (pas_latency cfg g mapped) with
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
