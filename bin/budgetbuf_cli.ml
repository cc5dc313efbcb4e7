(* budgetbuf — command-line front end for the joint budget and
   buffer-size computation flow.  [budgetbuf --help] lists the
   subcommands. *)

module Config = Taskgraph.Config
module Parse = Taskgraph.Parse
module Mapping = Budgetbuf.Mapping
module Tradeoff = Budgetbuf.Tradeoff
module Socp_builder = Budgetbuf.Socp_builder
module Fault = Robust.Fault

open Cmdliner

let setup_logs level =
  Logs.set_reporter (Logs.format_reporter ());
  Logs.set_level level

let logs_term = Term.(const setup_logs $ Logs_cli.level ())

let load_config path =
  match Parse.config_of_file path with
  | cfg -> Ok cfg
  | exception Parse.Parse_error (line, msg) ->
    Error (Printf.sprintf "%s:%d: %s" path line msg)
  | exception Sys_error msg -> Error msg

(* A command that cannot run: one [error:] line, exit code 1. *)
let exit_error msg =
  Format.eprintf "error: %s@." msg;
  1

(* Loads the configuration for a command body; a load failure is one
   [error:] line and exit 1. *)
let with_config path f =
  match load_config path with
  | Error msg -> exit_error msg
  | Ok cfg -> f cfg

(* ------------------------------------------------------------------ *)
(* --jobs: domain pool for the sweep commands                          *)
(* ------------------------------------------------------------------ *)

let jobs_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Evaluate independent solves on $(docv) domains (default: the \
           $(b,BUDGETBUF_JOBS) environment variable, else the machine's \
           recommended domain count).  $(b,--jobs 1) forces the sequential \
           path; the results are identical either way.")

(* Resolves --jobs (falling back to BUDGETBUF_JOBS) to a domain count. *)
let resolve_jobs = function
  | Some n when n < 1 -> Error "--jobs must be >= 1"
  | Some n -> Ok n
  | None -> (
    try Ok (Parallel.Pool.default_domains ())
    with Invalid_argument msg -> Error msg)

(* Resolves --jobs to an optional pool and hands it to [f]; jobs = 1
   passes no pool at all, which is exactly the sequential code path. *)
let with_jobs jobs f =
  match resolve_jobs jobs with
  | Error msg -> exit_error msg
  | Ok 1 -> f None
  | Ok n -> Parallel.Pool.with_pool ~domains:n (fun pool -> f (Some pool))

(* ------------------------------------------------------------------ *)
(* --fault: deterministic solver fault injection (testing aid)         *)
(* ------------------------------------------------------------------ *)

let fault_conv =
  let parse s =
    match Fault.of_string s with
    | Ok plan -> Ok plan
    | Error msg -> Error (`Msg msg)
  in
  Arg.conv (parse, fun ppf p -> Format.pp_print_string ppf (Fault.to_string p))

let fault_arg =
  Arg.(
    value
    & opt (some fault_conv) None
    & info [ "fault" ] ~docv:"SPEC"
        ~doc:
          "Inject a deterministic fault, for exercising the recovery \
           ladder and the exact certifier: \
           $(b,KIND[,iter=N][,attempts=N|all][,only=I]) with kind \
           $(b,stall), $(b,nan), $(b,slow), $(b,dense_kkt) or \
           $(b,bad_round) (see docs/robustness.md).")

(* ------------------------------------------------------------------ *)
(* --trace / --metrics: observability (docs/observability.md)          *)
(* ------------------------------------------------------------------ *)

let obs_trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write a structured JSONL event trace to $(docv) (CRC-framed, \
           decodable with $(b,budgetbuf trace cat)); see \
           docs/observability.md for the event vocabulary.")

let metrics_arg =
  Arg.(
    value & flag
    & info [ "metrics" ]
        ~doc:
          "Print an aggregate metrics table after the run: solves and \
           iterations, recovery rungs, injected faults, certificate \
           verdicts, candidate verdicts, journal restores, pool activity \
           and wall-clock totals.")

(* Resolves --trace/--metrics to an optional observability context.
   The trace file is closed on every exit path; an unwritable --trace
   path raises [Sys_error] before any solving starts, which the
   top-level handler turns into a clean exit 2. *)
let with_obs ~trace ~metrics f =
  match (trace, metrics) with
  | None, false -> f None
  | _ ->
    let sink =
      match trace with
      | None -> Obs.Sink.null
      | Some path -> Obs.Sink.file path
    in
    let obs = Obs.Ctx.make ~sink () in
    let code = Fun.protect ~finally:(fun () -> Obs.Sink.close sink) (fun () -> f (Some obs)) in
    (match trace with
    | None -> ()
    | Some path -> Format.printf "trace written to %s@." path);
    if metrics then begin
      Format.printf "metrics:@.";
      List.iter (Format.printf "  %s@.") (Obs.Ctx.report obs)
    end;
    code

(* --fault --trace --metrics: the flags of every command that solves
   (solve and the sweeps). *)
type solver_flags = {
  fault : Fault.plan option;
  trace : string option;
  metrics : bool;
}

let solver_flags =
  Term.(
    const (fun fault trace metrics -> { fault; trace; metrics })
    $ fault_arg $ obs_trace_arg $ metrics_arg)

(* --certify: exact-certification summary on the sweep commands. *)
let certify_arg =
  Arg.(
    value & flag
    & info [ "certify" ]
        ~doc:
          "Report how many of the sweep's reported mappings carry an exact \
           rational certificate (see docs/robustness.md): one \
           $(b,certified: n/m) summary line after the table.")

(* ------------------------------------------------------------------ *)
(* --resume / --deadline / --per-candidate-deadline: durable sweeps    *)
(* ------------------------------------------------------------------ *)

module Journal = Durable.Journal
module Deadline = Durable.Deadline

let resume_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "resume" ] ~docv:"JOURNAL"
        ~doc:
          "Journal completed candidates to $(docv) (created if missing) and \
           restore the ones already recorded there, so a killed sweep \
           re-solves only what is missing.  The journal is pinned to this \
           exact configuration and sweep grid; a mismatched journal is \
           refused (see docs/robustness.md).")

let deadline_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "deadline" ] ~docv:"SECS"
        ~doc:
          "Stop the sweep after $(docv) seconds of wall clock.  In-flight \
           candidates are drained (and journaled under $(b,--resume)); the \
           report covers the candidates that finished.")

let candidate_deadline_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "per-candidate-deadline" ] ~docv:"SECS"
        ~doc:
          "Give each candidate solve at most $(docv) seconds of wall clock; \
           a candidate that exceeds it is skipped as timed out while the \
           sweep continues (and is retried on a $(b,--resume)).")

(* --jobs --certify --resume --deadline --per-candidate-deadline: the
   flags shared by the sweep commands. *)
type sweep_flags = {
  jobs : int option;
  certify : bool;
  resume : string option;
  deadline : float option;
  candidate_deadline : float option;
}

let sweep_flags =
  Term.(
    const (fun jobs certify resume deadline candidate_deadline ->
        { jobs; certify; resume; deadline; candidate_deadline })
    $ jobs_arg $ certify_arg $ resume_arg $ deadline_arg
    $ candidate_deadline_arg)

(* The one check behind every --deadline-style flag (the sweeps',
   serve's and request's): a budget in seconds must be a positive,
   finite number. *)
let check_deadline name = function
  | Some s when Float.is_nan s || s <= 0.0 ->
    Error (Printf.sprintf "%s must be positive" name)
  | Some s when not (Float.is_finite s) ->
    Error (Printf.sprintf "%s must be finite" name)
  | _ -> Ok ()

(* Ctrl-C or a TERM from a supervisor flips a flag the sweep polls
   between candidates: in-flight solves drain, get journaled, and the
   partial report still prints — the same graceful stop as a deadline.
   The flag records which signal fired so the exit code is the
   conventional 128+n (130 for INT, 143 for TERM).  Each handler
   chains to the default disposition so a second signal kills the
   process the ordinary way. *)
let drain_signals = [ Sys.sigint; Sys.sigterm ]

let install_drain_signals flag =
  List.filter_map
    (fun signum ->
      match
        Sys.signal signum
          (Sys.Signal_handle
             (fun s ->
               Atomic.set flag s;
               Sys.set_signal signum Sys.Signal_default))
      with
      | prev -> Some (signum, prev)
      | exception (Invalid_argument _ | Sys_error _) -> None)
    drain_signals

let restore_drain_signals saved =
  List.iter
    (fun (signum, prev) -> try Sys.set_signal signum prev with _ -> ())
    saved

(* Validates the durability flags, opens the journal, installs the
   SIGINT/SIGTERM drain and hands the sweep everything it needs.
   Prints "resumed: N/M from journal" before the sweep's own report
   (with "(D discarded)" when the decoder refused D records)
   and "deadline|interrupted: stopped after N/M candidates" after it;
   a deadline stop exits 0 (the partial result is well-formed), an
   interrupt exits 128+signal (130 on INT, 143 on TERM). *)
let with_durability ~fingerprint ~resume ~deadline ~candidate_deadline run =
  match
    Result.bind (check_deadline "--deadline" deadline) @@ fun () ->
    Result.bind
      (check_deadline "--per-candidate-deadline" candidate_deadline)
    @@ fun () ->
    match resume with
    | None -> Ok None
    | Some path -> Result.map Option.some (Journal.resume ~fingerprint path)
  with
  | Error msg -> exit_error msg
  | Ok journal ->
    let deadline = Option.map Deadline.after deadline in
    let cancelled = Atomic.make 0 in
    let prev = install_drain_signals cancelled in
    let progress = ref None in
    let finally () =
      restore_drain_signals prev;
      Option.iter Journal.close journal
    in
    Fun.protect ~finally @@ fun () ->
    let code =
      run ~journal ~deadline ~candidate_deadline
        ~cancel:(fun () -> Atomic.get cancelled <> 0)
        ~on_progress:(fun p ->
          progress := Some p;
          let { Durable.Sweep.resumed; discarded; total; _ } = p in
          if resumed > 0 || discarded > 0 then
            Format.printf "resumed: %d/%d from journal%s@." resumed total
              (if discarded > 0 then Printf.sprintf " (%d discarded)" discarded
               else ""))
    in
    match !progress with
    | Some p when p.Durable.Sweep.not_run > 0 ->
      let finished = p.Durable.Sweep.total - p.Durable.Sweep.not_run in
      let signalled = Atomic.get cancelled in
      if signalled <> 0 then begin
        Format.printf "interrupted: stopped after %d/%d candidates@." finished
          p.Durable.Sweep.total;
        128 + Durable.Os_signal.number signalled
      end
      else begin
        Format.printf "deadline: stopped after %d/%d candidates@." finished
          p.Durable.Sweep.total;
        code
      end
    | _ -> code

(* The journal fingerprint: the full canonical configuration text plus
   everything that shapes the candidate grid.  --jobs is deliberately
   absent — results are identical across job counts — while the fault
   plan is included: a faulted sweep's verdicts must not leak into a
   clean resume. *)
let sweep_fingerprint ~command ~cfg ~grid ~fault =
  Journal.fingerprint
    [
      command;
      Format.asprintf "%a" Config.pp cfg;
      grid;
      (match fault with None -> "" | Some p -> Fault.to_string p);
    ]

(* A --fault flag replaces BUDGETBUF_FAULT; without one the solve
   reads the environment ([Mapping.solve]'s absent [?fault]). *)
let override_fault = Option.map Option.some

(* The optional arguments of every sweep driver
   ([Tradeoff.capacity_sweep], [Pareto.frontier], [Dse.throughput_curve],
   and tighten's solve-then-[Tighten.run]) in their shared order, ahead
   of the configuration. *)
type 'a sweep =
  ?fault:Fault.plan option ->
  ?pool:Parallel.Pool.t ->
  ?deadline:Deadline.t ->
  ?candidate_deadline:float ->
  ?journal:Journal.t ->
  ?cancel:(unit -> bool) ->
  ?obs:Obs.Ctx.t ->
  ?on_progress:(Durable.Sweep.progress -> unit) ->
  Config.t ->
  'a

(* The one sweep command skeleton.  [plan cfg] checks the command's own
   arguments and answers the grid that keys the journal, the sweep
   driver and the report printer; the shared flags then resolve in a
   fixed order — --jobs, --trace/--metrics, the durability flags — and
   the report's code is the exit code. *)
let run_sweep ~command path solver flags
    (plan : Config.t -> (string * 'a sweep * ('a -> int), string) result) =
  with_config path @@ fun cfg ->
  match plan cfg with
  | Error msg -> exit_error msg
  | Ok (grid, sweep, report) ->
    with_jobs flags.jobs @@ fun pool ->
    let fingerprint =
      sweep_fingerprint ~command ~cfg ~grid ~fault:solver.fault
    in
    with_obs ~trace:solver.trace ~metrics:solver.metrics @@ fun obs ->
    with_durability ~fingerprint ~resume:flags.resume ~deadline:flags.deadline
      ~candidate_deadline:flags.candidate_deadline
    @@ fun ~journal ~deadline ~candidate_deadline ~cancel ~on_progress ->
    report
      (sweep ?fault:(override_fault solver.fault)
         ?pool ?journal ?deadline ?candidate_deadline ~cancel ?obs
         ~on_progress cfg)

(* The summary lines under every sweep table: the candidates skipped
   (solver failures and timeouts, not infeasibility verdicts) and, under
   --certify, how many reported mappings carry an exact certificate. *)
let print_skipped = function
  | [] -> ()
  | skipped ->
    let reasons = List.sort_uniq compare (List.map snd skipped) in
    Format.printf "skipped: %d (%s)@." (List.length skipped)
      (String.concat ", " reasons)

let print_certified ~certify verdicts =
  if certify then
    Format.printf "certified: %d/%d@."
      (List.length (List.filter Fun.id verdicts))
      (List.length verdicts)

(* ------------------------------------------------------------------ *)
(* solve                                                               *)
(* ------------------------------------------------------------------ *)

let file_arg =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"FILE" ~doc:"Configuration file (see budgetbuf generate).")

let simulate_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "simulate" ] ~docv:"N"
        ~doc:
          "After solving, validate the mapping on the TDM discrete-event \
           simulator with $(docv) executions per task.")

let output_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "output"; "o" ] ~docv:"FILE"
        ~doc:"Write the computed mapping in the format read by $(b,check) \
              and $(b,simulate).")

let continuous_arg =
  Arg.(
    value & flag
    & info [ "continuous" ]
        ~doc:"Also print the pre-rounding continuous optimum per variable.")

let do_solve () path simulate continuous output { fault; trace; metrics } =
  with_config path @@ fun cfg ->
  (match Config.validate cfg with
  | [] -> ()
  | problems ->
    List.iter (Format.eprintf "warning: %s@.") problems);
  with_obs ~trace ~metrics @@ fun obs ->
  match
    Mapping.solve ?obs ?fault:(override_fault fault) cfg
  with
  | Error e -> exit_error (Format.asprintf "%a" Mapping.pp_error e)
  | Ok r ->
    Format.printf "%a@." (Config.pp_mapped cfg) r.Mapping.mapped;
    Format.printf
      "objective: continuous %.4f, rounded %.4f (%d vars, %d rows, %d \
       iterations, %.2f ms)@."
      r.Mapping.objective r.Mapping.rounded_objective
      r.Mapping.stats.Mapping.variables r.Mapping.stats.Mapping.rows
      r.Mapping.stats.Mapping.iterations
      (1000.0 *. r.Mapping.stats.Mapping.solve_time_s);
    if r.Mapping.stats.Mapping.attempts > 1 then
      Format.printf "recovery: %d attempts (%a)@."
        r.Mapping.stats.Mapping.attempts Mapping.pp_recovery
        r.Mapping.recovery;
    if r.Mapping.stats.Mapping.kkt_fallbacks > 0 then
      Format.printf "kkt fallbacks: %d (sparse factorisation reran dense)@."
        r.Mapping.stats.Mapping.kkt_fallbacks;
    if continuous then
      List.iter
        (fun w ->
          Format.printf "continuous beta'(%s) = %.6f@."
            (Config.task_name cfg w)
            (r.Mapping.continuous.Socp_builder.budget w))
        (Config.all_tasks cfg);
    (* The verification line renders the certificate, the one verdict:
       a positive cycle is a missed throughput requirement. *)
    (match r.Mapping.certificate with
    | Budgetbuf.Certify.Certified _ -> Format.printf "verification: ok@."
    | Budgetbuf.Certify.Refuted refutation ->
      Format.printf "verification problem: %s@."
        (Budgetbuf.Violation.to_string
           (Budgetbuf.Certify.violation cfg refutation)));
    Format.printf "certificate: %s@."
      (Budgetbuf.Certify.summary r.Mapping.certificate);
    (match output with
    | None -> ()
    | Some file ->
      let oc = open_out file in
      let ppf = Format.formatter_of_out_channel oc in
      Format.fprintf ppf "%a@."
        (Taskgraph.Mapped_io.print cfg)
        r.Mapping.mapped;
      close_out oc;
      Format.printf "mapping written to %s@." file);
    (match simulate with
    | None -> ()
    | Some iterations -> begin
      match Tdm_sim.Sim.run cfg r.Mapping.mapped ~iterations () with
      | Error e -> Format.printf "simulation: %s@." e
      | Ok report ->
        List.iter
          (fun g ->
            Format.printf
              "simulation: graph %s period %.3f (required %.3f)@."
              (Config.graph_name cfg g)
              (report.Tdm_sim.Sim.graph_period g)
              (Config.period cfg g))
          (Config.graphs cfg)
    end);
    if Budgetbuf.Certify.certified r.Mapping.certificate then 0 else 1

let solve_cmd =
  let doc = "compute budgets and buffer sizes jointly (Algorithm 1)" in
  Cmd.v
    (Cmd.info "solve" ~doc)
    Term.(
      const do_solve $ logs_term $ file_arg $ simulate_arg $ continuous_arg
      $ output_arg $ solver_flags)

(* ------------------------------------------------------------------ *)
(* validate                                                            *)
(* ------------------------------------------------------------------ *)

let do_validate () path =
  with_config path @@ fun cfg ->
  Format.printf "parsed: %d processors, %d memories, %d graphs, %d tasks, \
                 %d buffers@."
    (List.length (Config.processors cfg))
    (List.length (Config.memories cfg))
    (List.length (Config.graphs cfg))
    (List.length (Config.all_tasks cfg))
    (List.length (Config.all_buffers cfg));
  match Config.validate cfg with
  | [] ->
    Format.printf "no structural problems found@.";
    0
  | problems ->
    List.iter (Format.printf "problem: %s@.") problems;
    1

let validate_cmd =
  let doc = "parse a configuration file and report structural problems" in
  Cmd.v (Cmd.info "validate" ~doc) Term.(const do_validate $ logs_term $ file_arg)

(* ------------------------------------------------------------------ *)
(* tradeoff                                                            *)
(* ------------------------------------------------------------------ *)

let caps_arg =
  Arg.(
    value
    & opt (pair ~sep:':' int int) (1, 10)
    & info [ "caps" ] ~docv:"LO:HI"
        ~doc:"Range of capacity caps to sweep (inclusive).")

let buffers_arg =
  Arg.(
    value
    & opt (some (list string)) None
    & info [ "buffers" ] ~docv:"NAMES"
        ~doc:
          "Comma-separated buffer names to cap (default: every buffer of \
           the configuration).")

let do_tradeoff () path (lo, hi) buffer_names solver flags =
  run_sweep ~command:"tradeoff" path solver flags @@ fun cfg ->
  match
    match buffer_names with
    | None -> Ok (Config.all_buffers cfg)
    | Some names -> (
      try Ok (List.map (Config.find_buffer cfg) names)
      with Not_found -> Error "unknown buffer name")
  with
  | Error msg -> Error msg
  | Ok _ when lo > hi || lo < 1 -> Error "empty or invalid cap range"
  | Ok buffers ->
    let caps = List.init (hi - lo + 1) (fun i -> lo + i) in
    let grid =
      Printf.sprintf "caps=%d:%d buffers=%s" lo hi
        (String.concat "," (List.map (Config.buffer_name cfg) buffers))
    in
    let report points =
      let tasks = Config.all_tasks cfg in
      Format.printf "%-6s" "cap";
      List.iter
        (fun w -> Format.printf " %-12s" (Config.task_name cfg w))
        tasks;
      Format.printf "@.";
      List.iter
        (fun (p : Tradeoff.point) ->
          match p.Tradeoff.result with
          | Error (Mapping.Solver_failure _ | Mapping.Timed_out _) ->
            (* Listed in the skipped summary below instead of faking an
               infeasibility verdict. *)
            ()
          | Error (Mapping.Infeasible _) ->
            Format.printf "%-6d" p.Tradeoff.cap;
            List.iter (fun _ -> Format.printf " %-12s" "infeasible") tasks;
            Format.printf "@."
          | Ok r ->
            Format.printf "%-6d" p.Tradeoff.cap;
            List.iter
              (fun w ->
                Format.printf " %-12.4f"
                  (r.Mapping.continuous.Socp_builder.budget w))
              tasks;
            Format.printf "@.")
        points;
      print_skipped
        (Mapping.skipped
           (fun (p : Tradeoff.point) -> (p.cap, p.result))
           points);
      let solved =
        List.filter_map
          (fun (p : Tradeoff.point) -> Result.to_option p.Tradeoff.result)
          points
      in
      (* Sparse-backend health: how many iterations across the sweep
         reran on the dense fallback (restored points report 0 — the
         solve did not run again). *)
      let fallbacks =
        List.fold_left
          (fun acc r -> acc + r.Mapping.stats.Mapping.kkt_fallbacks)
          0 solved
      in
      if fallbacks > 0 then
        Format.printf "kkt fallbacks: %d (sparse factorisation reran dense)@."
          fallbacks;
      print_certified ~certify:flags.certify
        (List.map
           (fun r -> Budgetbuf.Certify.certified r.Mapping.certificate)
           solved);
      0
    in
    Ok (grid, Tradeoff.capacity_sweep ~buffers ~caps, report)

let tradeoff_cmd =
  let doc = "sweep buffer-capacity caps and print the budget trade-off curve" in
  Cmd.v
    (Cmd.info "tradeoff" ~doc)
    Term.(
      const do_tradeoff $ logs_term $ file_arg $ caps_arg $ buffers_arg
      $ solver_flags $ sweep_flags)

(* ------------------------------------------------------------------ *)
(* experiment                                                          *)
(* ------------------------------------------------------------------ *)

let experiment_arg =
  Arg.(
    required
    & pos 0 (some (enum (List.map (fun n -> (n, n)) Experiments.names))) None
    & info [] ~docv:"ID"
        ~doc:
          (Printf.sprintf "Experiment id: %s."
             (String.concat ", " Experiments.names)))

let do_experiment () id jobs =
  with_jobs jobs @@ fun pool ->
  match Experiments.by_name ?pool id with
  | Some run ->
    run Format.std_formatter;
    0
  | None -> 2

let experiment_cmd =
  let doc = "regenerate a table or figure of the paper" in
  Cmd.v (Cmd.info "experiment" ~doc)
    Term.(const do_experiment $ logs_term $ experiment_arg $ jobs_arg)

(* ------------------------------------------------------------------ *)
(* generate                                                            *)
(* ------------------------------------------------------------------ *)

type workload =
  | T1 | T2 | Chain | Split_join | Ring | Multi_job | Mesh | Tree
  | App of string

let workload_arg =
  let table =
    [
      ("t1", T1); ("t2", T2); ("chain", Chain); ("splitjoin", Split_join);
      ("ring", Ring); ("multijob", Multi_job); ("mesh", Mesh); ("tree", Tree);
    ]
    @ List.map (fun (n, _) -> (n, App n)) Workloads.Apps.all
  in
  Arg.(
    required
    & pos 0 (some (enum table)) None
    & info [] ~docv:"KIND"
        ~doc:
          "Workload kind: t1, t2, chain, splitjoin, ring, multijob, mesh, \
           tree, or an application (h263-decoder, mp3-playback, modem, \
           car-radio).")

let size_arg =
  Arg.(
    value & opt int 4
    & info [ "n" ] ~docv:"N" ~doc:"Size parameter (tasks, branches, ...).")

let seed_arg =
  Arg.(
    value & opt int 1
    & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed for randomised kinds.")

let do_generate () kind n seed =
  let rng = Workloads.Rng.create (Int64.of_int seed) in
  match
    match kind with
    | T1 -> Ok (Workloads.Gen.paper_t1 ())
    | T2 -> Ok (Workloads.Gen.paper_t2 ())
    | Chain -> ( try Ok (Workloads.Gen.chain ~n ()) with Invalid_argument m -> Error m)
    | Split_join -> (
      try Ok (Workloads.Gen.split_join ~branches:n ())
      with Invalid_argument m -> Error m)
    | Ring -> (
      try Ok (Workloads.Gen.ring ~n ~initial:2 ())
      with Invalid_argument m -> Error m)
    | Multi_job -> (
      try Ok (Workloads.Gen.multi_job rng ~jobs:n ~tasks_per_job:3 ~procs:n ())
      with Invalid_argument m -> Error m)
    | Mesh -> (
      try Ok (Workloads.Gen.mesh ~rows:n ~cols:n ())
      with Invalid_argument m -> Error m)
    | Tree -> (
      try Ok (Workloads.Gen.binary_tree ~depth:n ())
      with Invalid_argument m -> Error m)
    | App name -> Ok ((List.assoc name Workloads.Apps.all) ())
  with
  | Error msg -> exit_error msg
  | Ok cfg ->
    Format.printf "%a@." Config.pp cfg;
    0

let generate_cmd =
  let doc = "emit a generated workload in the configuration syntax" in
  Cmd.v
    (Cmd.info "generate" ~doc)
    Term.(const do_generate $ logs_term $ workload_arg $ size_arg $ seed_arg)

(* ------------------------------------------------------------------ *)
(* check / simulate on a stored mapping                                *)
(* ------------------------------------------------------------------ *)

let mapped_arg =
  Arg.(
    required
    & pos 1 (some file) None
    & info [] ~docv:"MAPPED" ~doc:"Mapping file written by solve --output.")

let load_mapped cfg path =
  match Taskgraph.Mapped_io.parse_file cfg path with
  | mapped -> Ok mapped
  | exception Taskgraph.Mapped_io.Parse_error (line, msg) ->
    Error (Printf.sprintf "%s:%d: %s" path line msg)
  | exception Sys_error msg -> Error msg

(* A required period rounded up, like the exact periods printed next
   to it. *)
let period_up ~digits p =
  Exact.Rat.to_decimal ~round:`Up ~digits (Exact.Rat.of_float p)

let do_check () path mapped_path =
  with_config path @@ fun cfg ->
  match load_mapped cfg mapped_path with
  | Error msg -> exit_error msg
  | Ok mapped -> begin
    (* The certificate's verdict, and per graph the exact MCR and the
       required period, both rounded up: a printed minimal period is
       never below the true one, nor above the printed requirement
       when the mapping is certified. *)
    match Budgetbuf.Certify.check cfg mapped with
    | Budgetbuf.Certify.Certified _ ->
      List.iter
        (fun g ->
          match Budgetbuf.Certify.max_cycle_ratio cfg g mapped with
          | Some c ->
            Format.printf
              "graph %s: feasible, minimal period %s (required %s)@."
              (Config.graph_name cfg g)
              (Exact.Rat.to_decimal ~round:`Up ~digits:4
                 c.Budgetbuf.Certify.ratio)
              (period_up ~digits:4 (Config.period cfg g))
          | None ->
            Format.printf "graph %s: deadlocked@." (Config.graph_name cfg g))
        (Config.graphs cfg);
      0
    | Budgetbuf.Certify.Refuted _ as cert ->
      List.iter
        (fun v ->
          Format.printf "violation: %s@." (Budgetbuf.Violation.to_string v))
        (Budgetbuf.Certify.violations cfg mapped);
      Format.printf "certificate: %s@." (Budgetbuf.Certify.summary cert);
      1
  end

let check_cmd =
  let doc = "verify a stored mapping against its configuration" in
  Cmd.v (Cmd.info "check" ~doc)
    Term.(const do_check $ logs_term $ file_arg $ mapped_arg)

(* ------------------------------------------------------------------ *)
(* certify: exact rational proof for a stored mapping                  *)
(* ------------------------------------------------------------------ *)

let do_certify () path mapped_path =
  with_config path @@ fun cfg ->
  match load_mapped cfg mapped_path with
  | Error msg -> exit_error msg
  | Ok mapped ->
    let cert = Budgetbuf.Certify.check cfg mapped in
    (match cert with
    | Budgetbuf.Certify.Certified w ->
      List.iter
        (fun (actor, start) ->
          Format.printf "start %s = %s@." actor (Exact.Rat.to_string start))
        w.Budgetbuf.Certify.starts
    | Budgetbuf.Certify.Refuted _ -> ());
    Format.printf "certificate: %s@." (Budgetbuf.Certify.summary cert);
    if Budgetbuf.Certify.certified cert then 0 else 1

let certify_cmd =
  let doc =
    "certify a stored mapping with exact rational arithmetic (machine-checkable \
     proof or refutation)"
  in
  Cmd.v (Cmd.info "certify" ~doc)
    Term.(const do_certify $ logs_term $ file_arg $ mapped_arg)

let iterations_arg =
  Arg.(
    value & opt int 1000
    & info [ "iterations" ] ~docv:"N" ~doc:"Executions per task to simulate.")

let trace_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "trace" ] ~docv:"K"
        ~doc:"Print the first $(docv) executions of every task as a textual \
              Gantt trace (claim and completion instants).")

let vcd_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "vcd" ] ~docv:"FILE"
        ~doc:"Write the run as a VCD waveform (tasks + buffer levels).")

let do_simulate () path mapped_path iterations trace vcd =
  with_config path @@ fun cfg ->
  match load_mapped cfg mapped_path with
  | Error msg -> exit_error msg
  | Ok mapped -> begin
    match Tdm_sim.Sim.run cfg mapped ~iterations () with
    | Error e -> exit_error e
    | Ok report ->
      List.iter
        (fun g ->
          Format.printf "graph %s: measured period %.4f (required %.4f)@."
            (Config.graph_name cfg g)
            (report.Tdm_sim.Sim.graph_period g)
            (Config.period cfg g))
        (Config.graphs cfg);
      (match vcd with
      | None -> ()
      | Some file ->
        let oc = open_out file in
        let ppf = Format.formatter_of_out_channel oc in
        Tdm_sim.Vcd.dump cfg mapped report ppf;
        Format.pp_print_flush ppf ();
        close_out oc;
        Format.printf "waveform written to %s@." file);
      (match trace with
      | None -> ()
      | Some k ->
        List.iter
          (fun w ->
            let xs = report.Tdm_sim.Sim.task_executions w in
            for i = 0 to Int.min k (Array.length xs) - 1 do
              let claim, finish = xs.(i) in
              Format.printf "trace %s #%d: claim %.3f done %.3f@."
                (Config.task_name cfg w) (i + 1) claim finish
            done)
          (Config.all_tasks cfg));
      0
  end

let simulate_cmd =
  let doc = "replay a stored mapping on the TDM discrete-event simulator" in
  Cmd.v (Cmd.info "simulate" ~doc)
    Term.(
      const do_simulate $ logs_term $ file_arg $ mapped_arg $ iterations_arg
      $ trace_arg $ vcd_arg)

(* ------------------------------------------------------------------ *)
(* tighten: simulator-in-the-loop buffer tightening                    *)
(* ------------------------------------------------------------------ *)

let banks_arg =
  Arg.(
    value & opt int 1
    & info [ "banks" ] ~docv:"GRANULE"
        ~doc:
          "Banked-memory cost granule: capacities are allocated in banks \
           of $(docv) containers, so the search only probes capacities at \
           bank boundaries (clamped to the analytic capacity).  The \
           default granule of 1 searches every container count.")

let sim_iterations_arg =
  Arg.(
    value & opt int 64
    & info [ "iterations" ] ~docv:"N"
        ~doc:
          "Executions per task for every simulation probe (at least 4; \
           longer runs measure the steady-state period more precisely \
           and cost proportionally more per probe).")

let do_tighten () path banks iterations jobs output resume deadline
    candidate_deadline trace metrics =
  run_sweep ~command:"tighten" path
    { fault = None; trace; metrics }
    { jobs; certify = false; resume; deadline; candidate_deadline }
  @@ fun cfg ->
  if banks < 1 then Error "--banks must be >= 1"
  else if iterations < 4 then Error "--iterations must be >= 4"
  else
    (* The analytic mapping and its exact certificate stay with the
       result: the tightened capacities are simulation-backed, the
       analytic ones machine-checked (docs/tightening.md). *)
    let sweep ?fault ?pool ?deadline ?candidate_deadline ?journal ?cancel ?obs
        ?on_progress cfg =
      match Mapping.solve ?fault ?obs cfg with
      | Error e -> Error (Format.asprintf "%a" Mapping.pp_error e)
      | Ok r ->
        Format.printf "certificate: %s@."
          (Budgetbuf.Certify.summary r.Mapping.certificate);
        Tighten.run ?pool ?journal ?deadline ?candidate_deadline ?cancel ?obs
          ?on_progress ~iterations ~bank:banks cfg r.Mapping.mapped
    in
    let report = function
      | Error msg -> exit_error msg
      | Ok t ->
        List.iter
          (fun (o : Tighten.outcome) ->
            let name =
              Config.buffer_name cfg
                (Config.buffer_of_id cfg o.Tighten.buffer_id)
            in
            match o.Tighten.skipped with
            | Some reason ->
              Format.printf "buffer %-8s analytic %d, kept (%s)@." name
                o.Tighten.analytic reason
            | None ->
              Format.printf
                "buffer %-8s analytic %d, simulated %d (floor %d, %d \
                 probes)@."
                name o.Tighten.analytic o.Tighten.tightened o.Tighten.floor
                o.Tighten.probes)
          t.Tighten.outcomes;
        let a = t.Tighten.analytic_containers in
        let m = t.Tighten.tightened_containers in
        let saved_pct =
          if a <= 0 then 0.0 else 100.0 *. float_of_int (a - m) /. float_of_int a
        in
        Format.printf
          "analytic: %d containers, simulated: %d containers (-%.0f%%)@." a
          m saved_pct;
        if t.Tighten.refuted = 0 then
          Format.printf "probes: %d simulations@." t.Tighten.probes
        else
          Format.printf
            "probes: %d simulations, %d refuted by the cycle bound@."
            t.Tighten.probes t.Tighten.refuted;
        if t.Tighten.repaired then
          Format.printf
            "repaired: per-buffer minima missed the joint target; \
             sequential repair pass applied@.";
        (match output with
        | None -> ()
        | Some file ->
          let oc = open_out file in
          let ppf = Format.formatter_of_out_channel oc in
          Format.fprintf ppf "%a@."
            (Taskgraph.Mapped_io.print cfg)
            t.Tighten.mapped;
          close_out oc;
          Format.printf "mapping written to %s@." file);
        0
    in
    Ok (Printf.sprintf "bank=%d iterations=%d" banks iterations, sweep, report)

let tighten_cmd =
  let doc =
    "tighten certified buffer capacities with the discrete-event simulator \
     (per-buffer dichotomy between the exact SRDF lower bound and the \
     analytic capacity)"
  in
  Cmd.v (Cmd.info "tighten" ~doc)
    Term.(
      const do_tighten $ logs_term $ file_arg $ banks_arg
      $ sim_iterations_arg $ jobs_arg $ output_arg $ resume_arg
      $ deadline_arg $ candidate_deadline_arg $ obs_trace_arg $ metrics_arg)

(* ------------------------------------------------------------------ *)
(* export: MPS / CPLEX-LP text for external solvers                    *)
(* ------------------------------------------------------------------ *)

let export_format_arg =
  Arg.(
    value
    & opt (enum [ ("mps", `Mps); ("lp", `Lp) ]) `Mps
    & info [ "format" ] ~docv:"FMT"
        ~doc:
          "Exchange format: $(b,mps) (free-format MPS with QCMATRIX \
           quadratic sections) or $(b,lp) (CPLEX-LP text); see \
           docs/formats.md for the exact dialect.")

let export_check_arg =
  Arg.(
    value & flag
    & info [ "check" ]
        ~doc:
          "Parse the exported text back with the bundled total parser and \
           verify that re-exporting it is byte-identical (the \
           differential-testing seam's self-test).")

let do_export () path format output check =
  with_config path @@ fun cfg ->
  let b = Socp_builder.build cfg in
  let name = Filename.remove_extension (Filename.basename path) in
  let ir = Conic.Lpfile.of_model ~name b.Socp_builder.model in
  let render ir =
    match format with
    | `Mps -> Conic.Lpfile.to_mps ir
    | `Lp -> Conic.Lpfile.to_lp ir
  in
  let text = render ir in
  let check_ok =
    (not check)
    ||
    match Conic.Lpfile.of_string_result text with
    | Error msg ->
      Format.eprintf "error: exported text does not parse back: %s@." msg;
      false
    | Ok ir' ->
      if String.equal text (render ir') then begin
        Format.eprintf "check: parse round trip byte-identical@.";
        true
      end
      else begin
        Format.eprintf "error: export/parse round trip is not \
                        byte-identical@.";
        false
      end
  in
  if not check_ok then 1
  else begin
    (match output with
    | None -> print_string text
    | Some file ->
      let oc = open_out file in
      output_string oc text;
      close_out oc;
      Format.printf "model written to %s (%d variables, %d rows)@." file
        (Array.length ir.Conic.Lpfile.vars)
        (List.length ir.Conic.Lpfile.rows));
    0
  end

let export_cmd =
  let doc =
    "export the cone program as MPS or CPLEX-LP text for an external solver"
  in
  Cmd.v (Cmd.info "export" ~doc)
    Term.(
      const do_export $ logs_term $ file_arg $ export_format_arg $ output_arg
      $ export_check_arg)

(* ------------------------------------------------------------------ *)
(* pareto                                                              *)
(* ------------------------------------------------------------------ *)

let steps_arg =
  Arg.(
    value & opt int 9
    & info [ "steps" ] ~docv:"N" ~doc:"Number of weight ratios to sweep.")

let do_pareto () path steps solver flags =
  run_sweep ~command:"pareto" path solver flags @@ fun _cfg ->
  if steps < 1 then Error "--steps must be at least 1"
  else
    let report (sweep : Budgetbuf.Pareto.sweep) =
      let points = sweep.Budgetbuf.Pareto.points in
      if points = [] then Format.printf "no feasible point@."
      else begin
        Format.printf "%-14s %-16s %-12s@." "weight ratio" "sum of budgets"
          "containers";
        List.iter
          (fun (p : Budgetbuf.Pareto.point) ->
            Format.printf "%-14.3g %-16.4f %-12d@."
              p.Budgetbuf.Pareto.weight_ratio p.Budgetbuf.Pareto.budget_sum
              p.Budgetbuf.Pareto.buffer_containers)
          points
      end;
      print_skipped sweep.Budgetbuf.Pareto.skipped;
      print_certified ~certify:flags.certify
        (List.map
           (fun (p : Budgetbuf.Pareto.point) -> p.Budgetbuf.Pareto.certified)
           points);
      if points = [] then 1 else 0
    in
    Ok
      ( Printf.sprintf "steps=%d" steps,
        Budgetbuf.Pareto.frontier ~steps,
        report )

let pareto_cmd =
  let doc = "sweep objective weights and print the budget/buffer Pareto front" in
  Cmd.v (Cmd.info "pareto" ~doc)
    Term.(
      const do_pareto $ logs_term $ file_arg $ steps_arg $ solver_flags
      $ sweep_flags)

(* ------------------------------------------------------------------ *)
(* dse                                                                 *)
(* ------------------------------------------------------------------ *)

let do_dse () path (lo, hi) solver flags =
  run_sweep ~command:"dse" path solver flags @@ fun _cfg ->
  if lo > hi || lo < 1 then Error "empty or invalid cap range"
  else
    let caps = List.init (hi - lo + 1) (fun i -> lo + i) in
    let report points =
      Format.printf "%-6s %-12s@." "cap" "min period";
      List.iter
        (fun (p : Budgetbuf.Dse.curve_point) ->
          match p.Budgetbuf.Dse.outcome with
          | Ok (Some period) ->
            (* The exact period of the certified mapping, rounded up. *)
            Format.printf "%-6d %-12s@." p.Budgetbuf.Dse.cap
              (period_up ~digits:4 period)
          | Ok None -> Format.printf "%-6d %-12s@." p.Budgetbuf.Dse.cap "infeasible"
          | Error _ -> ())
        points;
      print_skipped
        (Mapping.skipped
           (fun (p : Budgetbuf.Dse.curve_point) -> (p.cap, p.outcome))
           points);
      (* The search accepts only certified probes: every point counts. *)
      print_certified ~certify:flags.certify
        (List.map (fun _ -> true) (Budgetbuf.Dse.curve_points points));
      0
    in
    Ok
      ( Printf.sprintf "caps=%d:%d" lo hi,
        Budgetbuf.Dse.throughput_curve ~caps,
        report )

let dse_cmd =
  let doc =
    "sweep buffer-capacity caps and print the minimal feasible period \
     (throughput curve) per cap"
  in
  Cmd.v (Cmd.info "dse" ~doc)
    Term.(
      const do_dse $ logs_term $ file_arg $ caps_arg $ solver_flags
      $ sweep_flags)

(* ------------------------------------------------------------------ *)
(* bind                                                                *)
(* ------------------------------------------------------------------ *)

let strategy_arg =
  let table =
    [
      ("greedy", Budgetbuf.Binding.Greedy_utilization);
      ("firstfit", Budgetbuf.Binding.First_fit);
      ("exhaustive", Budgetbuf.Binding.Exhaustive 4096);
    ]
  in
  Arg.(
    value
    & opt (enum table) Budgetbuf.Binding.Greedy_utilization
    & info [ "strategy" ] ~docv:"S"
        ~doc:"Binding strategy: greedy, firstfit, or exhaustive.")

let do_bind () path strategy =
  with_config path @@ fun cfg ->
  match Budgetbuf.Binding.optimize ~strategy cfg with
  | Error msg -> exit_error msg
  | Ok o ->
    List.iter
      (fun (task, proc) -> Format.printf "bind %s -> %s@." task proc)
      o.Budgetbuf.Binding.assignment;
    Format.printf "%a@."
      (Config.pp_mapped o.Budgetbuf.Binding.config)
      o.Budgetbuf.Binding.result.Mapping.mapped;
    Format.printf "objective %.4f after %d binding solve(s)@."
      o.Budgetbuf.Binding.result.Mapping.rounded_objective
      o.Budgetbuf.Binding.explored;
    0

let bind_cmd =
  let doc = "search for a task-to-processor binding (paper future work)" in
  Cmd.v (Cmd.info "bind" ~doc)
    Term.(const do_bind $ logs_term $ file_arg $ strategy_arg)

(* ------------------------------------------------------------------ *)
(* latency                                                             *)
(* ------------------------------------------------------------------ *)

let do_latency () path =
  with_config path @@ fun cfg ->
  match Mapping.solve cfg with
  | Error e -> exit_error (Format.asprintf "%a" Mapping.pp_error e)
  | Ok r ->
    (* The latency of each graph's earliest PAS, rounded up; a refuted
       mapping fails with its certificate after them. *)
    let failures = ref 0 in
    List.iter
      (fun g ->
        let name = Config.graph_name cfg g in
        match
          ( Config.chain_ends cfg g,
            Budgetbuf.Certify.latency cfg r.Mapping.mapped g )
        with
        | None, _ ->
          incr failures;
          Format.printf "graph %s: no unique source/sink pair@." name
        | Some _, None ->
          incr failures;
          Format.printf "graph %s: no periodic schedule@." name
        | Some _, Some l ->
          Format.printf "graph %s: end-to-end latency %s (period %.3f)@."
            name
            (Exact.Rat.to_decimal ~round:`Up ~digits:3 l)
            (Config.period cfg g))
      (Config.graphs cfg);
    (match r.Mapping.certificate with
    | Budgetbuf.Certify.Certified _ -> ()
    | Budgetbuf.Certify.Refuted _ as cert ->
      incr failures;
      Format.printf "certificate: %s@." (Budgetbuf.Certify.summary cert));
    if !failures = 0 then 0 else 1

let latency_cmd =
  let doc = "solve, then report end-to-end latency per task graph" in
  Cmd.v (Cmd.info "latency" ~doc) Term.(const do_latency $ logs_term $ file_arg)

(* ------------------------------------------------------------------ *)
(* dot                                                                 *)
(* ------------------------------------------------------------------ *)

let srdf_flag =
  Arg.(
    value & flag
    & info [ "srdf" ]
        ~doc:
          "Emit the SRDF analysis model (two actors per task, data and \
           space queues) instead of the task-graph view; requires solving \
           first to obtain budgets and capacities.")

let do_dot () path srdf =
  with_config path @@ fun cfg ->
  if not srdf then begin
    Format.printf "%a" Config.pp_dot cfg;
    0
  end
  else begin
    match Mapping.solve cfg with
    | Error e -> exit_error (Format.asprintf "%a" Mapping.pp_error e)
    | Ok r ->
      List.fold_left
        (fun code g ->
          match Budgetbuf.Certify.srdf cfg g r.Mapping.mapped with
          | Ok srdf ->
            Format.printf "%a" Dataflow.Srdf.pp_dot srdf;
            code
          | Error v -> exit_error (Budgetbuf.Violation.to_string v))
        0 (Config.graphs cfg)
  end

let dot_cmd =
  let doc = "emit the configuration (or its SRDF model) in Graphviz DOT" in
  Cmd.v (Cmd.info "dot" ~doc) Term.(const do_dot $ logs_term $ file_arg $ srdf_flag)

(* ------------------------------------------------------------------ *)
(* analyze                                                             *)
(* ------------------------------------------------------------------ *)

let mapped_opt_arg =
  Arg.(
    value
    & pos 1 (some file) None
    & info [] ~docv:"MAPPED"
        ~doc:
          "Mapping file written by solve --output; when omitted the \
           configuration is solved first.")

let do_analyze () path mapped_path =
  with_config path @@ fun cfg ->
  let mapped =
    match mapped_path with
    | Some file -> Result.map_error (fun m -> m) (load_mapped cfg file)
    | None -> begin
      match Mapping.solve cfg with
      | Ok r -> Ok r.Mapping.mapped
      | Error e -> Error (Format.asprintf "%a" Mapping.pp_error e)
    end
  in
  match mapped with
  | Error msg -> exit_error msg
  | Ok mapped ->
    List.iter
      (fun g ->
        Format.printf "graph %s:@." (Config.graph_name cfg g);
        (* Exact MCR: the slack rounded down, the ratio up. *)
        (match Budgetbuf.Certify.max_cycle_ratio cfg g mapped with
        | Some c ->
          Format.printf "  throughput slack: %s (period %s)@."
            (Exact.Rat.to_decimal ~round:`Down ~digits:4
               c.Budgetbuf.Certify.slack)
            (period_up ~digits:4 (Config.period cfg g));
          Format.printf "  %a@." (Budgetbuf.Certify.pp_critical cfg) c
        | None -> Format.printf "  deadlocked or invalid mapping@.");
        List.iter
          (fun w ->
            Format.printf "  budget slack %s: %.4f of %.4f@."
              (Config.task_name cfg w)
              (Budgetbuf.Sensitivity.budget_slack cfg g mapped w)
              (mapped.Config.budget w))
          (Config.tasks cfg g))
      (Config.graphs cfg);
    0

let analyze_cmd =
  let doc =
    "report throughput slack, the critical cycle and per-task budget slack"
  in
  Cmd.v (Cmd.info "analyze" ~doc)
    Term.(const do_analyze $ logs_term $ file_arg $ mapped_opt_arg)

(* ------------------------------------------------------------------ *)
(* report                                                              *)
(* ------------------------------------------------------------------ *)

let do_report () path mapped_path =
  with_config path @@ fun cfg ->
  let mapped =
    match mapped_path with
    | Some file -> load_mapped cfg file
    | None -> begin
      match Mapping.solve cfg with
      | Ok r -> Ok r.Mapping.mapped
      | Error e -> Error (Format.asprintf "%a" Mapping.pp_error e)
    end
  in
  match mapped with
  | Error msg -> exit_error msg
  | Ok mapped ->
    let report = Budgetbuf.Report.build cfg mapped in
    Format.printf "%a@." (Budgetbuf.Report.pp cfg) report;
    if Budgetbuf.Certify.certified report.Budgetbuf.Report.certificate then 0
    else 1

let report_cmd =
  let doc = "summarise a mapping: loads, slack, latency, critical cycles" in
  Cmd.v (Cmd.info "report" ~doc)
    Term.(const do_report $ logs_term $ file_arg $ mapped_opt_arg)

(* ------------------------------------------------------------------ *)
(* sdf                                                                 *)
(* ------------------------------------------------------------------ *)

let serialize_flag =
  Arg.(
    value & flag
    & info [ "serialize" ]
        ~doc:
          "Forbid auto-concurrent firings of an actor (chain its copies \
           with one token).")

let sdf_dot_flag =
  Arg.(
    value & flag
    & info [ "dot" ] ~doc:"Emit the single-rate expansion in Graphviz DOT.")

let do_sdf () path serialize dot =
  match Dataflow.Sdf_parse.of_file path with
  | exception Dataflow.Sdf_parse.Parse_error (line, msg) ->
    exit_error (Printf.sprintf "%s:%d: %s" path line msg)
  | exception Sys_error msg -> exit_error msg
  | t, _find -> begin
    match Dataflow.Csdf.repetition_vector t with
    | Error msg -> exit_error msg
    | Ok q ->
      Dataflow.Csdf.actors t
      |> List.iter (fun a ->
             Format.printf "actor %s: %d phase(s), %d cycle(s) per iteration@."
               (Dataflow.Csdf.actor_name t a)
               (Dataflow.Csdf.phases t a)
               (q a));
      (match Dataflow.Csdf.expand ~serialize t with
      | Error msg -> exit_error msg
      | Ok { Dataflow.Csdf.srdf; _ } ->
        Format.printf "expansion: %d actors, %d queues@."
          (Dataflow.Srdf.num_actors srdf)
          (Dataflow.Srdf.num_edges srdf);
        if dot then Format.printf "%a" Dataflow.Srdf.pp_dot srdf;
        (match Dataflow.Csdf.iteration_period ~serialize t with
        | Ok 0.0 -> Format.printf "iteration period: unbounded pipeline (acyclic)@."
        | Ok r -> Format.printf "iteration period: %g@." r
        | Error msg -> Format.printf "iteration period: %s@." msg);
        0)
  end

let sdf_cmd =
  let doc = "analyse a multi-rate (C)SDF graph via single-rate expansion" in
  Cmd.v (Cmd.info "sdf" ~doc)
    Term.(const do_sdf $ logs_term $ file_arg $ serialize_flag $ sdf_dot_flag)

(* ------------------------------------------------------------------ *)
(* trace: inspect --trace files                                        *)
(* ------------------------------------------------------------------ *)

let trace_file_arg =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"FILE" ~doc:"Trace file written by $(b,--trace).")

let do_trace_cat () path =
  match Obs.Sink.read_file path with
  | Error msg -> exit_error msg
  | Ok events ->
    List.iter (fun e -> print_endline (Obs.Trace.summary e)) events;
    0

let trace_cat_cmd =
  let doc =
    "decode a trace file to one line per event (sequence number, event \
     name, fields; timestamps omitted)"
  in
  Cmd.v (Cmd.info "cat" ~doc)
    Term.(const do_trace_cat $ logs_term $ trace_file_arg)

let trace_cmd =
  let doc = "inspect structured trace files (see docs/observability.md)" in
  Cmd.group (Cmd.info "trace" ~doc) [ trace_cat_cmd ]

(* ------------------------------------------------------------------ *)
(* serve / request: the admission-control server (docs/serving.md)     *)
(* ------------------------------------------------------------------ *)

let socket_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH"
        ~doc:"Unix-domain socket path the server listens on.")

let serve_cache_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "cache" ] ~docv:"JOURNAL"
        ~doc:
          "Persist the canonical-instance memo cache to $(docv) (a \
           CRC-framed journal, created if missing, replayed on start): \
           repeated instances answer from cache with byte-identical \
           mappings and certificates, across restarts and crashes.")

let serve_queue_arg =
  Arg.(
    value & opt int 16
    & info [ "queue" ] ~docv:"N"
        ~doc:
          "Bound the admission queue at $(docv) requests; beyond it admits \
           are shed immediately with an $(b,overloaded) reply and a retry \
           hint (backpressure, never unbounded buffering).")

let serve_batch_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "batch" ] ~docv:"N"
        ~doc:
          "Dispatch up to $(docv) queued solves onto the domain pool at \
           once (default: the $(b,--jobs) width).")

let serve_deadline_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "deadline" ] ~docv:"SECS"
        ~doc:
          "Default arrival-to-reply budget for admits that do not carry \
           their own $(b,deadline_s): queued past it or solving past it \
           answers $(b,timed_out) instead of hanging the socket.")

let serve_cache_max_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "cache-max" ] ~docv:"N"
        ~doc:
          "Bound the memo cache at $(docv) instances (FIFO eviction) and \
           compact its journal once at least half the file is dead lines \
           — the on-disk size stays proportional to the bound.  Default: \
           unbounded, never compacted.")

let serve_chaos_arg =
  let chaos_conv =
    Arg.conv
      ( (fun s ->
          match Serve.Chaos.of_string s with
          | Ok spec -> Ok spec
          | Error msg -> Error (`Msg msg)),
        fun ppf spec -> Format.pp_print_string ppf (Serve.Chaos.to_string spec)
      )
  in
  Arg.(
    value
    & opt (some chaos_conv) None
    & info [ "chaos" ] ~docv:"SPEC"
        ~doc:
          "Inject deterministic faults per $(docv) = \
           $(i,KIND)[,n=$(i,N)][,seed=$(i,S)]: $(b,torn), $(b,reset), \
           $(b,stall), $(b,exn), $(b,fsync), $(b,corrupt) or $(b,all), \
           firing on roughly one in $(i,N) operations (see \
           docs/robustness.md).  Falls back to the $(b,BUDGETBUF_CHAOS) \
           environment variable.")

let serve_reconcile_arg =
  Arg.(
    value & flag
    & info [ "reconcile" ]
        ~doc:
          "Release the admissions of a connection that closes, so a \
           crashed client cannot leak capacity.  Off by default: \
           admissions then outlive their connection until an explicit \
           $(b,release).")

let serve_watchdog_arg =
  Arg.(
    value
    & opt (some float) (Some 1.0)
    & info [ "watchdog" ] ~docv:"SECS"
        ~doc:
          "Reap solves stuck $(docv) seconds past their deadline: the \
           client gets $(b,timed_out) and the slot is reclaimed even if \
           the solve never returns.  Negative disables the watchdog.")

let serve_isolate_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "isolate" ] ~docv:"N"
        ~doc:
          "Run solves in $(docv) supervised worker $(i,processes) instead \
           of in-process: a solve that crashes, hangs or exhausts memory \
           kills a disposable worker — never the server — and the client \
           still gets a structured reply.  A request that keeps killing \
           workers is quarantined and answered $(b,poisoned).")

let serve_rlimit_mem_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "rlimit-mem" ] ~docv:"MB"
        ~doc:
          "Cap each worker's address space at $(docv) MiB (needs \
           $(b,--isolate)); a solve that exceeds it dies inside its own \
           process.")

let serve_rlimit_cpu_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "rlimit-cpu" ] ~docv:"SECS"
        ~doc:
          "Cap each worker's CPU time at $(docv) seconds (needs \
           $(b,--isolate)).")

let serve_poison_arg =
  Arg.(
    value & opt int 2
    & info [ "poison-threshold" ] ~docv:"K"
        ~doc:
          "Quarantine a canonical instance after it crashes $(docv) \
           workers: further identical requests answer $(b,poisoned) \
           without sacrificing another worker (needs $(b,--isolate)).")

let serve_quarantine_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "quarantine" ] ~docv:"JOURNAL"
        ~doc:
          "Persist the poison-request quarantine to $(docv) (same \
           crash-safe journal discipline as $(b,--cache)); crash counts \
           survive server restarts.  Needs $(b,--isolate).")

(* The counters of serve's exit line and of [request stats]; only the
   live reply carries the gauges (pings, live, queue). *)
let stats_fields ~gauges (s : Serve.Protocol.stats) =
  Printf.sprintf
    "admitted=%d rejected=%d infeasible=%d timed_out=%d failed=%d \
     poisoned=%d shed=%d refused=%d released=%d cache_hits=%d \
     cache_misses=%d%s worker_crashes=%d"
    s.admitted s.rejected s.infeasible s.timed_out s.failed s.poisoned s.shed
    s.refused s.released s.cache_hits s.cache_misses
    (if gauges then
       Printf.sprintf " pings=%d live=%d queue=%d" s.pings s.live s.queue
     else "")
    s.worker_crashes

let do_serve () socket cache cache_max queue batch jobs deadline chaos
    reconcile watchdog isolate rlimit_mem rlimit_cpu poison quarantine trace
    metrics =
  match
    Result.bind (check_deadline "--deadline" deadline) @@ fun () ->
    resolve_jobs jobs
  with
  | Ok _ when isolate = None && rlimit_mem <> None ->
    exit_error "--rlimit-mem needs --isolate"
  | Ok _ when isolate = None && rlimit_cpu <> None ->
    exit_error "--rlimit-cpu needs --isolate"
  | Error msg -> exit_error msg
  | Ok domains -> (
    with_obs ~trace ~metrics @@ fun obs ->
    match
      match chaos with
      | Some _ -> Ok chaos
      | None -> ( try Ok (Serve.Chaos.of_env ()) with Invalid_argument m -> Error m)
    with
    | Error msg -> exit_error msg
    | Ok chaos ->
    let config =
      {
        Serve.Server.socket_path = socket;
        queue_capacity = queue;
        batch = (match batch with Some b -> b | None -> domains);
        domains;
        default_deadline_s = deadline;
        cache_path = cache;
        cache_max_entries = cache_max;
        obs;
        signals = true;
        halt_after_admits = None;
        chaos = Option.map (fun spec -> Serve.Chaos.create ?obs spec) chaos;
        reconcile;
        watchdog_grace_s =
          (match watchdog with Some g when g >= 0.0 -> Some g | _ -> None);
        isolate;
        rlimit_mem_mb = rlimit_mem;
        rlimit_cpu_s = rlimit_cpu;
        poison_threshold = poison;
        quarantine_path = quarantine;
        worker_exe = None;
        log =
          Some
            (fun line ->
              print_endline line;
              flush stdout);
      }
    in
    match Serve.Server.run config with
    | Error msg -> exit_error msg
    | Ok (reason, s) ->
      Format.printf "serve: %s; %s@."
        (Serve.Server.describe reason)
        (stats_fields ~gauges:false s);
      (match reason with
      | Serve.Server.Shutdown_request | Serve.Server.Halted -> 0
      | Serve.Server.Signalled n -> 128 + n))

let serve_cmd =
  let doc =
    "serve solve requests over a Unix socket with admission control, \
     backpressure, per-request deadlines and a crash-safe memo cache \
     (see docs/serving.md)"
  in
  Cmd.v
    (Cmd.info "serve" ~doc)
    Term.(
      const do_serve $ logs_term $ socket_arg $ serve_cache_arg
      $ serve_cache_max_arg $ serve_queue_arg $ serve_batch_arg $ jobs_arg
      $ serve_deadline_arg $ serve_chaos_arg $ serve_reconcile_arg
      $ serve_watchdog_arg $ serve_isolate_arg $ serve_rlimit_mem_arg
      $ serve_rlimit_cpu_arg $ serve_poison_arg $ serve_quarantine_arg
      $ obs_trace_arg $ metrics_arg)

let request_op_arg =
  Arg.(
    value
    & pos 0
        (some
           (enum
              [
                ("admit", `Admit); ("release", `Release); ("ping", `Ping);
                ("stats", `Stats); ("shutdown", `Shutdown);
              ]))
        None
    & info [] ~docv:"OP"
        ~doc:
          "$(b,admit) a configuration (solve and reserve its footprint), \
           $(b,release) a live job, $(b,ping) for readiness, fetch server \
           $(b,stats), or ask for a graceful $(b,shutdown).")

let request_ping_flag =
  Arg.(
    value & flag
    & info [ "ping" ]
        ~doc:
          "Shorthand for the $(b,ping) operation: exit 0 when the server \
           answers $(b,serving), 1 when it is starting or draining, 2 \
           when it cannot be reached — a ready-made health probe.")

let request_file_arg =
  Arg.(
    value
    & pos 1 (some file) None
    & info [] ~docv:"FILE" ~doc:"Configuration file to admit.")

let request_id_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "id" ] ~docv:"JOB"
        ~doc:
          "Job id for $(b,admit)/$(b,release); unique among live jobs on \
           the server.")

let request_deadline_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "deadline" ] ~docv:"SECS"
        ~doc:"Arrival-to-reply budget for this admit.")

let request_retry_flag =
  Arg.(
    value & flag
    & info [ "retry" ]
        ~doc:
          "Run the request through the resilient client engine instead of \
           one exchange on one connection: reconnect with backoff, honour \
           $(i,overloaded) retry hints, and re-issue an admit whose reply \
           was lost with the idempotent wire retry flag (cannot \
           double-admit).")

let do_request () socket op ping file id deadline fault retry =
  (* A server dying mid-exchange must surface as a transport error and
     a nonzero exit, not kill the client with SIGPIPE. *)
  ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore);
  match
    Result.bind (check_deadline "--deadline" deadline) @@ fun () ->
    match (op, ping) with
    | None, false -> Error "an OP (or --ping) is required"
    | Some _, true -> Error "--ping takes no OP"
    | None, true | Some `Ping, false -> Ok Serve.Protocol.Ping
    | Some op, false -> (
      match op with
      | `Ping -> assert false
      | `Admit -> (
        match (file, id) with
        | None, _ -> Error "admit needs a configuration FILE"
        | _, None -> Error "admit needs --id"
        | Some path, Some id -> (
          match In_channel.with_open_text path In_channel.input_all with
          | config ->
            Ok
              (Serve.Protocol.Admit
                 {
                   id;
                   config;
                   deadline_s = deadline;
                   fault = Option.map Fault.to_string fault;
                   retry = false;
                 })
          | exception Sys_error msg -> Error msg))
      | `Release -> (
        match id with
        | None -> Error "release needs --id"
        | Some id -> Ok (Serve.Protocol.Release { id }))
      | `Stats -> Ok Serve.Protocol.Stats
      | `Shutdown -> Ok Serve.Protocol.Shutdown)
  with
  | Error msg ->
    Format.eprintf "error: %s@." msg;
    2
  | Ok request -> (
    match
      if retry then Serve.Client.submit ~socket request
      else
        Serve.Client.with_connection socket (fun c ->
            Serve.Client.roundtrip c request)
    with
    | Error msg ->
      Format.eprintf "error: %s@." msg;
      2
    | Ok response -> (
      match response with
      | Serve.Protocol.Admitted
          { id; cache; mapping; certificate; attempts; _ } ->
        (* One write: a reader that stops after the first line (say,
           [head -1]) must not turn the rest into a broken pipe. *)
        Printf.printf "admitted %s (cache %s%s)\n%s%scertificate: %s\n%!" id
          (match cache with `Hit -> "hit" | `Miss -> "miss")
          (if attempts > 1 then
             Printf.sprintf ", recovered in %d attempts" attempts
           else "")
          mapping
          (if mapping = "" || mapping.[String.length mapping - 1] <> '\n' then
             "\n"
           else "")
          certificate;
        0
      | Serve.Protocol.Rejected { id; reason } ->
        Format.printf "rejected %s: %s@." id reason;
        1
      | Serve.Protocol.Unsat { id; reason } ->
        Format.printf "infeasible %s: %s@." id reason;
        1
      | Serve.Protocol.Late { id; reason } ->
        Format.printf "timed out %s: %s@." id reason;
        4
      | Serve.Protocol.Failed { id; reason } ->
        Format.printf "failed %s: %s@." id reason;
        2
      | Serve.Protocol.Poisoned { id; reason } ->
        Format.printf "poisoned %s: %s@." id reason;
        5
      | Serve.Protocol.Overloaded { id; _ } ->
        (* The retry hint is load-dependent (and so nondeterministic);
           scripts read it from the wire, humans just retry. *)
        Format.printf "overloaded %s: retry later@." id;
        3
      | Serve.Protocol.Released { id; found } ->
        if found then Format.printf "released %s@." id
        else Format.printf "released %s: not found@." id;
        if found then 0 else 1
      | Serve.Protocol.Stats_reply s ->
        Format.printf "stats: %s@." (stats_fields ~gauges:true s);
        0
      | Serve.Protocol.Ready { state } ->
        Format.printf "ready: %s@." (Serve.Protocol.readiness_name state);
        (match state with Serve.Protocol.Serving -> 0 | _ -> 1)
      | Serve.Protocol.Refused { reason } ->
        Format.eprintf "error: %s@." reason;
        2
      | Serve.Protocol.Bye ->
        Format.printf "server shutting down@.";
        0))

let request_cmd =
  let doc =
    "send one request to a running $(b,budgetbuf serve) instance and \
     print its reply (exit 0 admitted/ok, 1 infeasible/rejected, 2 \
     error, 3 overloaded, 4 timed out, 5 poisoned)"
  in
  Cmd.v
    (Cmd.info "request" ~doc)
    Term.(
      const do_request $ logs_term $ socket_arg $ request_op_arg
      $ request_ping_flag $ request_file_arg $ request_id_arg
      $ request_deadline_arg $ fault_arg $ request_retry_flag)

(* ------------------------------------------------------------------ *)

let main_cmd =
  let doc =
    "simultaneous budget and buffer-size computation for \
     throughput-constrained task graphs (Wiggers et al., DATE 2010)"
  in
  Cmd.group
    (Cmd.info "budgetbuf" ~version:"1.0.0" ~doc)
    [
      solve_cmd; validate_cmd; tradeoff_cmd; experiment_cmd; generate_cmd;
      pareto_cmd; dse_cmd; bind_cmd; latency_cmd; check_cmd; certify_cmd;
      simulate_cmd; tighten_cmd; export_cmd; dot_cmd;
      sdf_cmd; analyze_cmd; report_cmd; trace_cmd; serve_cmd; request_cmd;
    ]

(* A malformed flag value or an impossible request (say, a simulator
   horizon below its warm-up) surfaces as Invalid_argument/Failure from
   deep inside the libraries.  Turn these into a one-line diagnostic and
   a non-zero exit instead of an OCaml backtrace. *)
let () =
  (* The hidden worker mode: [budgetbuf worker] is exec'd by the serve
     supervisor, speaks the pipe protocol on stdin/stdout, and is of no
     use interactively — dispatch it before cmdliner so it stays out of
     --help. *)
  if Array.length Sys.argv >= 2 && Sys.argv.(1) = "worker" then
    exit (Serve.Worker.main (Array.to_list Sys.argv));
  match Cmd.eval' ~catch:false main_cmd with
  | code -> exit code
  | exception (Invalid_argument msg | Failure msg | Sys_error msg) ->
    Format.eprintf "budgetbuf: error: %s@." msg;
    exit 2
