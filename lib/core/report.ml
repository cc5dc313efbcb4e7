module Config = Taskgraph.Config

type processor_load = {
  proc : Config.proc;
  allocated : float;
  utilisation : float;
}

type memory_load = {
  memory : Config.memory;
  occupied : int;
  fraction : float;
}

type graph_report = {
  graph : Config.graph;
  period_required : float;
  period_min : float option;
  slack : float option;
  latency : float option;
  critical : Sensitivity.critical option;
}

type t = {
  processors : processor_load list;
  memories : memory_load list;
  graphs : graph_report list;
  violations : string list;
}

let build cfg (mapped : Config.mapped) =
  let processors =
    List.map
      (fun proc ->
        let allocated =
          List.fold_left
            (fun acc w -> acc +. mapped.Config.budget w)
            (Config.overhead cfg proc)
            (Config.tasks_on cfg proc)
        in
        {
          proc;
          allocated;
          utilisation = allocated /. Config.replenishment cfg proc;
        })
      (Config.processors cfg)
  in
  let memories =
    List.map
      (fun memory ->
        let occupied =
          List.fold_left
            (fun acc b ->
              acc + (mapped.Config.capacity b * Config.container_size cfg b))
            0
            (Config.buffers_in cfg memory)
        in
        let cap = Config.memory_capacity cfg memory in
        {
          memory;
          occupied;
          fraction =
            (if cap = 0 then 0.0
             else float_of_int occupied /. float_of_int cap);
        })
      (Config.memories cfg)
  in
  let graphs =
    List.map
      (fun graph ->
        let period_min = Dataflow_model.min_feasible_period cfg graph mapped in
        {
          graph;
          period_required = Config.period cfg graph;
          period_min;
          slack = Sensitivity.throughput_slack cfg graph mapped;
          latency =
            (try Dataflow_model.chain_latency cfg graph mapped
             with Invalid_argument _ -> None);
          critical = Sensitivity.critical_cycle cfg graph mapped;
        })
      (Config.graphs cfg)
  in
  {
    processors;
    memories;
    graphs;
    violations = List.map Violation.to_string (Dataflow_model.verify cfg mapped);
  }

let pp cfg ppf t =
  Format.fprintf ppf "@[<v>";
  Format.fprintf ppf "processors:@,";
  List.iter
    (fun p ->
      Format.fprintf ppf "  %-10s %6.2f of %6.2f Mcycles (%.0f%%)@,"
        (Config.proc_name cfg p.proc)
        p.allocated
        (Config.replenishment cfg p.proc)
        (100.0 *. p.utilisation))
    t.processors;
  Format.fprintf ppf "memories:@,";
  List.iter
    (fun m ->
      Format.fprintf ppf "  %-10s %6d of %6d units (%.0f%%)@,"
        (Config.memory_name cfg m.memory)
        m.occupied
        (Config.memory_capacity cfg m.memory)
        (100.0 *. m.fraction))
    t.memories;
  Format.fprintf ppf "graphs:@,";
  List.iter
    (fun g ->
      Format.fprintf ppf "  %-10s period %.3f required"
        (Config.graph_name cfg g.graph) g.period_required;
      (match g.period_min with
      | Some p -> Format.fprintf ppf ", %.3f achievable" p
      | None -> Format.fprintf ppf ", deadlocked");
      (match g.slack with
      | Some s -> Format.fprintf ppf ", slack %.3f" s
      | None -> ());
      (match g.latency with
      | Some l -> Format.fprintf ppf ", latency %.3f" l
      | None -> ());
      Format.fprintf ppf "@,";
      match g.critical with
      | Some c ->
        Format.fprintf ppf "    %a@," (Sensitivity.pp_critical cfg) c
      | None -> ())
    t.graphs;
  (match t.violations with
  | [] -> Format.fprintf ppf "verification: ok@,"
  | vs ->
    Format.fprintf ppf "violations:@,";
    List.iter (fun v -> Format.fprintf ppf "  %s@," v) vs);
  Format.fprintf ppf "@]"
