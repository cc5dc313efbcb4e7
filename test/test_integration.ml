(* Broad integration smoke tests: every generator and application flows
   through the whole tool chain — solve, verify, report, sensitivity,
   simulate, trace, VCD, DOT, config and mapping serialisation — with
   every intermediate invariant checked.  These guard the seams between
   libraries that the per-module suites cannot see. *)

module Config = Taskgraph.Config
module Mapping = Budgetbuf.Mapping
module Report = Budgetbuf.Report
module Sim = Tdm_sim.Sim

let fixtures : (string * (unit -> Config.t)) list =
  [
    ("paper-t1", Workloads.Gen.paper_t1);
    ("paper-t2", Workloads.Gen.paper_t2);
    ("chain-5", fun () -> Workloads.Gen.chain ~n:5 ());
    ("chain-shared", fun () -> Workloads.Gen.chain ~n:6 ~shared_procs:2 ());
    ("split-join-3", fun () -> Workloads.Gen.split_join ~branches:3 ());
    ("ring-4", fun () -> Workloads.Gen.ring ~n:4 ~initial:4 ());
    ("mesh-2x3", fun () -> Workloads.Gen.mesh ~rows:2 ~cols:3 ());
    ("tree-2", fun () -> Workloads.Gen.binary_tree ~depth:2 ());
    ( "multi-job",
      fun () ->
        Workloads.Gen.multi_job (Workloads.Rng.create 4L) ~jobs:2
          ~tasks_per_job:3 ~procs:2 () );
  ]
  @ Workloads.Apps.all

let full_pipeline name build () =
  let cfg = build () in
  (* 1. The configuration is well-formed and serialises. *)
  Alcotest.(check (list string)) (name ^ ": validate") [] (Config.validate cfg);
  let text = Format.asprintf "%a" Config.pp cfg in
  let cfg' = Taskgraph.Parse.config_of_string text in
  Alcotest.(check string)
    (name ^ ": config round-trip")
    text
    (Format.asprintf "%a" Config.pp cfg');
  (* 2. The joint program solves and the rounded mapping verifies. *)
  match Mapping.solve cfg with
  | Error e -> Alcotest.failf "%s: solve failed: %a" name Mapping.pp_error e
  | Ok r ->
    Alcotest.(check (list string)) (name ^ ": verified") []
      (List.map Budgetbuf.Violation.to_string
         (Float_verify.verify cfg r.Mapping.mapped));
    let mapped = r.Mapping.mapped in
    (* 3. The mapping serialises and parses back identically. *)
    let mtext = Format.asprintf "%a" (Taskgraph.Mapped_io.print cfg) mapped in
    let mapped' = Taskgraph.Mapped_io.parse cfg mtext in
    List.iter
      (fun w ->
        Alcotest.(check (float 1e-12))
          (name ^ ": budget survives io")
          (mapped.Config.budget w) (mapped'.Config.budget w))
      (Config.all_tasks cfg);
    (* 4. The report is consistent. *)
    let report = Report.build cfg mapped in
    Alcotest.(check bool) (name ^ ": report certified") true
      (Budgetbuf.Certify.certified report.Report.certificate);
    List.iter
      (fun (g : Report.graph_report) ->
        match g.Report.critical with
        | Some c ->
          Alcotest.(check bool)
            (name ^ ": mcr within mu")
            true
            (Exact.Rat.compare c.Budgetbuf.Certify.ratio
               (Exact.Rat.of_float g.Report.period_required)
            <= 0)
        | None -> Alcotest.fail (name ^ ": missing report fields"))
      report.Report.graphs;
    (* 5. Simulation meets every period (with sampling-bias slack) and
       stays within capacities. *)
    (match Sim.run cfg mapped ~iterations:400 () with
    | Error e -> Alcotest.failf "%s: simulation failed: %s" name e
    | Ok sim ->
      List.iter
        (fun g ->
          Alcotest.(check bool)
            (name ^ ": simulated period within bound")
            true
            (sim.Sim.graph_period g
            <= Config.period cfg g
               +. (2.0 *. 60.0 /. 200.0) (* bias: interval/half-window *)))
        (Config.graphs cfg);
      List.iter
        (fun b ->
          Alcotest.(check bool)
            (name ^ ": occupancy bounded")
            true
            (sim.Sim.buffer_high_water b <= mapped.Config.capacity b))
        (Config.all_buffers cfg);
      (* 6. The VCD export renders without error and mentions every
         task. *)
      let buf = Buffer.create 4096 in
      let ppf = Format.formatter_of_buffer buf in
      Tdm_sim.Vcd.dump cfg mapped sim ppf;
      Format.pp_print_flush ppf ();
      let vcd = Buffer.contents buf in
      List.iter
        (fun w ->
          let needle = " " ^ Config.task_name cfg w ^ " $end" in
          let contains =
            let ln = String.length needle and lh = String.length vcd in
            let rec at i =
              i + ln <= lh && (String.sub vcd i ln = needle || at (i + 1))
            in
            at 0
          in
          Alcotest.(check bool) (name ^ ": vcd declares task") true contains)
        (Config.all_tasks cfg));
    (* 7. The DOT exports render and are non-trivial. *)
    let dot = Format.asprintf "%a" Config.pp_dot cfg in
    Alcotest.(check bool) (name ^ ": dot") true (String.length dot > 50)

let () =
  Alcotest.run "integration"
    [
      ( "pipeline",
        List.map
          (fun (name, build) ->
            Alcotest.test_case name `Quick (full_pipeline name build))
          fixtures );
    ]
