(* A designer's review workflow on a realistic application: map the MP3
   playback pipeline, then interrogate the result — loads, slack, the
   critical cycle, per-task budget headroom and the Pareto alternatives
   — the questions that follow "it fits" in a real project.

   Run with:  dune exec examples/design_review.exe *)

module Config = Taskgraph.Config
module Mapping = Budgetbuf.Mapping
module Report = Budgetbuf.Report
module Sensitivity = Budgetbuf.Sensitivity
module Pareto = Budgetbuf.Pareto

let () =
  let cfg = Workloads.Apps.mp3_playback () in
  match Mapping.solve cfg with
  | Error e ->
    Format.printf "mapping failed: %a@." Mapping.pp_error e;
    exit 1
  | Ok r ->
    let mapped = r.Mapping.mapped in
    Format.printf "--- MP3 playback, mapped ---@.%a@." (Config.pp_mapped cfg)
      mapped;
    Format.printf "--- review ---@.%a@." (Report.pp cfg)
      (Report.build cfg mapped);
    let g = Config.find_graph cfg "mp3" in
    Format.printf "budget headroom per task (shrink room at fixed µ):@.";
    List.iter
      (fun w ->
        Format.printf "  %-10s %.3f of %.3f Mcycles@."
          (Config.task_name cfg w)
          (Sensitivity.budget_slack cfg g mapped w)
          (mapped.Config.budget w))
      (Config.tasks cfg g);
    Format.printf "@.alternative operating points (Pareto sweep):@.";
    List.iter
      (fun p -> Format.printf "  %a@." Pareto.pp_point p)
      (Pareto.frontier ~steps:7 cfg).Pareto.points;
    (* A what-if: can the pipeline run at twice the rate, with every
       buffer capped at the largest capacity this mapping chose? *)
    let capped = Config.copy cfg in
    let cap =
      List.fold_left
        (fun acc b -> Int.max acc (mapped.Config.capacity b))
        1 (Config.all_buffers cfg)
    in
    List.iter
      (fun b -> Config.set_max_capacity capped b (Some cap))
      (Config.all_buffers capped);
    match Budgetbuf.Dse.min_period_scale capped with
    | Some s when s <= 0.5 ->
      Format.printf
        "@.what-if: the pipeline could sustain half the period (scale %.3f \
         of the requirement) on these resources.@."
        s
    | Some s ->
      Format.printf
        "@.what-if: the best sustainable period is %.1f%% of the current \
         requirement; doubling the rate needs faster processors.@."
        (100.0 *. s)
    | None -> Format.printf "@.what-if: resources structurally exhausted.@."
