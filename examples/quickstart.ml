(* Quickstart: build a configuration, run the joint budget/buffer
   computation, and inspect the result.

   Run with:  dune exec examples/quickstart.exe *)

module Config = Taskgraph.Config
module Mapping = Budgetbuf.Mapping

let () =
  (* A two-task video-style pipeline: a decoder feeding a renderer over
     one FIFO buffer, on two processors with TDM budget schedulers. *)
  let cfg = Config.create ~granularity:1.0 () in
  let cpu0 =
    Config.add_processor cfg ~name:"cpu0" ~replenishment:40.0 ~overhead:0.5 ()
  in
  let cpu1 =
    Config.add_processor cfg ~name:"cpu1" ~replenishment:40.0 ~overhead:0.5 ()
  in
  let sram = Config.add_memory cfg ~name:"sram" ~capacity:64 in
  (* One frame every 10 Mcycles. *)
  let job = Config.add_graph cfg ~name:"video" ~period:10.0 () in
  let decoder =
    Config.add_task cfg job ~name:"decoder" ~proc:cpu0 ~wcet:1.2 ~weight:1.0 ()
  in
  let renderer =
    Config.add_task cfg job ~name:"renderer" ~proc:cpu1 ~wcet:0.8 ~weight:1.0 ()
  in
  let frames =
    Config.add_buffer cfg job ~name:"frames" ~src:decoder ~dst:renderer
      ~memory:sram ~container_size:4 ~initial_tokens:0 ~weight:0.05 ()
  in

  (* Sanity-check the configuration before solving. *)
  (match Config.validate cfg with
  | [] -> ()
  | problems ->
    List.iter (Printf.printf "configuration problem: %s\n") problems;
    exit 1);

  (* The joint computation: one second-order cone program determines
     both the TDM budgets and the buffer capacity. *)
  match Mapping.solve cfg with
  | Error e ->
    Format.printf "mapping failed: %a@." Mapping.pp_error e;
    exit 1
  | Ok result ->
    Format.printf "--- mapped configuration ---@.%a@."
      (Config.pp_mapped cfg) result.Mapping.mapped;
    Format.printf "continuous optimum of objective (5): %.4f@."
      result.Mapping.objective;
    Format.printf "after conservative rounding:         %.4f@."
      result.Mapping.rounded_objective;
    Format.printf "solver: %d interior-point iterations in %.2f ms@."
      result.Mapping.stats.Mapping.iterations
      (1000.0 *. result.Mapping.stats.Mapping.solve_time_s);
    (* The exact certificate is the verdict: Certified means a periodic
       admissible schedule exists at period 10 and every capacity is
       respected, checked in rational arithmetic. *)
    Format.printf "exact certificate: %s@."
      (Budgetbuf.Certify.summary result.Mapping.certificate);
    (* Simulation is on demand: run the TDM discrete-event simulator to
       see the period the mapping actually achieves. *)
    (match Tdm_sim.Sim.run cfg result.Mapping.mapped ~iterations:1000 () with
    | Error e -> Format.printf "simulation failed: %s@." e
    | Ok report ->
      Format.printf "simulated steady-state period: %.3f Mcycles (bound 10)@."
        (report.Tdm_sim.Sim.graph_period job));
    Format.printf "buffer %s: %d containers of %d words@."
      (Config.buffer_name cfg frames)
      (result.Mapping.mapped.Config.capacity frames)
      (Config.container_size cfg frames)
