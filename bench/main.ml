(* Benchmark and experiment harness.

   Regenerates every table and figure of the paper's evaluation section
   (Section V) — the series themselves live in [lib/experiments] — and
   times the full analysis with Bechamel (one Test.make per
   table/figure).

     dune exec bench/main.exe             # everything
     dune exec bench/main.exe -- fig2a    # one experiment
     dune exec bench/main.exe -- tables   # all tables, no timing suite
     dune exec bench/main.exe -- bench    # timing suite only
     dune exec bench/main.exe -- par      # parallel speedup report only
     dune exec bench/main.exe -- durable  # journal overhead report only
     dune exec bench/main.exe -- certify  # certification overhead only
     dune exec bench/main.exe -- obs      # observability overhead only
     dune exec bench/main.exe -- tighten  # analytic vs simulated buffers

   [--jobs N] selects the domain-pool width for the experiment tables
   and the parallel speedup report (default: BUDGETBUF_JOBS, else the
   machine's recommended domain count; --jobs 1 is the sequential
   path). *)

module Config = Taskgraph.Config
module Mapping = Budgetbuf.Mapping
module Tradeoff = Budgetbuf.Tradeoff

let caps_1_10 = List.init 10 (fun i -> i + 1)

(* ------------------------------------------------------------------ *)
(* Bechamel timing suite: one Test.make per table/figure               *)
(* ------------------------------------------------------------------ *)

(* Fixture builders shared by the timing tests. *)
let mcr_graph n =
  let rng = Workloads.Rng.create 99L in
  let g = Dataflow.Srdf.create () in
  let actors =
    Array.init n (fun i ->
        Dataflow.Srdf.add_actor g ~name:(string_of_int i)
          ~duration:(Workloads.Rng.float rng ~lo:0.5 ~hi:10.0))
  in
  for i = 0 to n - 1 do
    let tokens = if i = n - 1 then 1 else Workloads.Rng.int rng ~bound:3 in
    ignore
      (Dataflow.Srdf.add_edge g ~src:actors.(i) ~dst:actors.((i + 1) mod n)
         ~tokens)
  done;
  for _ = 1 to 2 * n do
    ignore
      (Dataflow.Srdf.add_edge g
         ~src:actors.(Workloads.Rng.int rng ~bound:n)
         ~dst:actors.(Workloads.Rng.int rng ~bound:n)
         ~tokens:(1 + Workloads.Rng.int rng ~bound:3))
  done;
  g

let cd_dat () =
  let t = Dataflow.Sdf.create () in
  let add name = Dataflow.Sdf.add_actor t ~name ~duration:1.0 in
  let cd = add "cd" and f1 = add "f1" and f2 = add "f2" in
  let f3 = add "f3" and f4 = add "f4" and dat = add "dat" in
  List.iter
    (fun (src, production, dst, consumption) ->
      ignore (Dataflow.Sdf.add_channel t ~src ~production ~dst ~consumption ()))
    [
      (cd, 1, f1, 1); (f1, 2, f2, 3); (f2, 2, f3, 7); (f3, 8, f4, 7);
      (f4, 5, dat, 1);
    ];
  t

let binding_instance () =
  let cfg = Config.create ~granularity:1.0 () in
  let fast = Config.add_processor cfg ~name:"fast" ~replenishment:30.0 () in
  let _slow = Config.add_processor cfg ~name:"slow" ~replenishment:60.0 () in
  let m = Config.add_memory cfg ~name:"m0" ~capacity:4096 in
  let g = Config.add_graph cfg ~name:"pipe" ~period:12.0 () in
  let tasks =
    List.map
      (fun (name, wcet) -> Config.add_task cfg g ~name ~proc:fast ~wcet ())
      [ ("grab", 1.0); ("filter", 3.0); ("encode", 2.0); ("emit", 0.5) ]
  in
  let rec connect i = function
    | a :: (b :: _ as rest) ->
      ignore
        (Config.add_buffer cfg g
           ~name:(Printf.sprintf "q%d" i)
           ~src:a ~dst:b ~memory:m ~weight:0.01 ());
      connect (i + 1) rest
    | [ _ ] | [] -> ()
  in
  connect 0 tasks;
  cfg

let bechamel_suite () =
  let open Bechamel in
  let solve cfg () = ignore (Mapping.solve cfg) in
  (* Cost of climbing one recovery rung: the base attempt is sabotaged
     into a stall, so every solve pays base + relaxed (see
     docs/robustness.md). *)
  let recover cfg =
    let policy =
      {
        Robust.Recovery.fault = Some Robust.Fault.stall_first;
        max_rungs = 4;
      }
    in
    fun () -> ignore (Mapping.solve ~policy cfg)
  in
  let sweep gen () =
    let cfg = gen () in
    ignore
      (Tradeoff.capacity_sweep cfg
         ~buffers:(Config.all_buffers cfg)
         ~caps:caps_1_10)
  in
  let mcr_check () =
    let cfg = Workloads.Gen.paper_t1 () in
    let g = Config.find_graph cfg "t1" in
    let mapped =
      { Config.budget = (fun _ -> 4.0); Config.capacity = (fun _ -> 10) }
    in
    ignore (Budgetbuf.Dataflow_model.min_feasible_period cfg g mapped)
  in
  let tests =
    Test.make_grouped ~name:"budgetbuf"
      [
        (* Figures 2(a) and 2(b) share the same capacity sweep. *)
        Test.make ~name:"fig2a+b: T1 capacity sweep (10 solves)"
          (Staged.stage (sweep Workloads.Gen.paper_t1));
        Test.make ~name:"fig3: T2 capacity sweep (10 solves)"
          (Staged.stage (sweep Workloads.Gen.paper_t2));
        Test.make ~name:"rt: solve paper T1"
          (Staged.stage (solve (Workloads.Gen.paper_t1 ())));
        Test.make ~name:"rt: solve paper T1 (stalled base, 1 recovery rung)"
          (Staged.stage (recover (Workloads.Gen.paper_t1 ())));
        Test.make ~name:"fig2a+b: T1 capacity sweep (journaled, fsync/cap)"
          (Staged.stage (fun () ->
               let path = Filename.temp_file "budgetbuf-bench" ".journal" in
               Sys.remove path;
               match
                 Durable.Journal.resume
                   ~fingerprint:(Durable.Journal.fingerprint [ "bench" ])
                   path
               with
               | Error msg -> failwith msg
               | Ok journal ->
                 Fun.protect
                   ~finally:(fun () ->
                     Durable.Journal.close journal;
                     Sys.remove path)
                   (fun () ->
                     let cfg = Workloads.Gen.paper_t1 () in
                     ignore
                       (Tradeoff.capacity_sweep ~journal cfg
                          ~buffers:(Config.all_buffers cfg)
                          ~caps:caps_1_10))));
        Test.make ~name:"rt: solve paper T2"
          (Staged.stage (solve (Workloads.Gen.paper_t2 ())));
        Test.make ~name:"rt: solve chain n=8"
          (Staged.stage (solve (Workloads.Gen.chain ~n:8 ())));
        Test.make ~name:"rt: solve chain n=16"
          (Staged.stage (solve (Workloads.Gen.chain ~n:16 ())));
        Test.make ~name:"rt: solve multi-job 3x3"
          (Staged.stage
             (solve
                (Workloads.Gen.multi_job (Workloads.Rng.create 1L) ~jobs:3
                   ~tasks_per_job:3 ~procs:3 ())));
        Test.make ~name:"ana: MCR feasibility check (T1)"
          (Staged.stage mcr_check);
        (let g = mcr_graph 100 in
         Test.make ~name:"mcr: Howard, 100 actors"
           (Staged.stage (fun () -> ignore (Dataflow.Howard.max_cycle_ratio g))));
        (let g = mcr_graph 100 in
         Test.make ~name:"mcr: binary search, 100 actors"
           (Staged.stage (fun () ->
                ignore (Dataflow.Analysis.max_cycle_ratio g))));
        Test.make ~name:"sdf: CD-DAT expansion (612 copies)"
          (Staged.stage (fun () -> ignore (Dataflow.Sdf.expand (cd_dat ()))));
        Test.make ~name:"ext: SLP iteration (capped T1)"
          (Staged.stage (fun () ->
               let cfg = Workloads.Gen.paper_t1 () in
               List.iter
                 (fun b -> Config.set_max_capacity cfg b (Some 6))
                 (Config.all_buffers cfg);
               ignore (Budgetbuf.Slp.solve cfg)));
        Test.make ~name:"app: solve h263 decoder"
          (Staged.stage (solve (Workloads.Apps.h263_decoder ())));
        Test.make ~name:"ext: binding exhaustive, 4 tasks x 2 procs"
          (Staged.stage (fun () ->
               ignore
                 (Budgetbuf.Binding.optimize
                    ~strategy:(Budgetbuf.Binding.Exhaustive 16)
                    (binding_instance ()))));
      ]
  in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let cfg_bench =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:None ()
  in
  let raw = Benchmark.all cfg_bench instances tests in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  Format.printf "@.=== Bechamel timing (monotonic clock, OLS per call) ===@.@.";
  Format.printf "  %-48s %-14s %-8s@." "benchmark" "time/run" "r^2";
  let rows = ref [] in
  Hashtbl.iter (fun name res -> rows := (name, res) :: !rows) results;
  List.iter
    (fun (name, res) ->
      let time_ns =
        match Analyze.OLS.estimates res with
        | Some (t :: _) -> t
        | Some [] | None -> nan
      in
      let r2 =
        match Analyze.OLS.r_square res with
        | Some r -> Printf.sprintf "%.3f" r
        | None -> "-"
      in
      Format.printf "  %-48s %10.3f ms  %-8s@." name (time_ns /. 1e6) r2)
    (List.sort compare !rows)

(* ------------------------------------------------------------------ *)
(* Parallel speedup report: the DSE throughput curve at --jobs N       *)
(* ------------------------------------------------------------------ *)

(* Wall-clock of the whole capacity sweep (each point is a full
   bisection of solves), sequential vs pooled, plus the pool counters —
   so the speedup is measured, not asserted. *)
let par_report ~jobs ppf =
  Format.fprintf ppf "@.=== Parallel throughput-curve sweep (DSE dual) ===@.@.";
  let caps = caps_1_10 in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let run name cfg =
    let seq, t_seq =
      time (fun () -> Budgetbuf.Dse.throughput_curve cfg ~caps)
    in
    Parallel.Pool.with_pool ~domains:jobs @@ fun pool ->
    let par, t_par =
      time (fun () -> Budgetbuf.Dse.throughput_curve ~pool cfg ~caps)
    in
    if seq <> par then
      Format.fprintf ppf "  %-14s DETERMINISM VIOLATION@." name
    else begin
      Format.fprintf ppf
        "  %-14s jobs 1: %7.1f ms   jobs %d: %7.1f ms   speedup %.2fx@." name
        (1000.0 *. t_seq) jobs (1000.0 *. t_par)
        (t_seq /. Float.max 1e-9 t_par);
      Format.fprintf ppf "  %-14s pool: %a@." "" Parallel.Stats.pp
        (Parallel.Pool.stats pool)
    end
  in
  run "paper T1" (Workloads.Gen.paper_t1 ());
  run "chain n=6" (Workloads.Gen.chain ~n:6 ());
  Format.fprintf ppf
    "@.  (identical curves across job counts; speedup bounded by the %d \
     core(s) of this machine)@."
    (Domain.recommended_domain_count ())

(* ------------------------------------------------------------------ *)
(* Durable-sweep overhead: journaling cost per candidate               *)
(* ------------------------------------------------------------------ *)

(* Wall-clock of the Experiment-2-style capacity sweep with and without
   a journal (one fsync'd line per completed candidate).  The target of
   docs/robustness.md — under 2% on a solver-bound sweep — is reported,
   not asserted: machines with slow fsync exist, and the number itself
   is the deliverable.  Also written to BENCH_durable.json. *)
let durable_report ppf =
  Format.fprintf ppf "@.=== Durable sweep overhead (journal + fsync) ===@.@.";
  (* A solver-bound sweep: each of the 10 candidates is a full joint
     solve of a 24-task chain (~100 ms), so the per-candidate fsync has
     something real to hide behind — paper T1 solves in under a
     millisecond per cap and would measure the disk, not the journal
     design. *)
  let cfg = Workloads.Gen.chain ~n:24 () in
  let buffers = Config.all_buffers cfg in
  let once f =
    let t0 = Unix.gettimeofday () in
    ignore (f ());
    Unix.gettimeofday () -. t0
  in
  let sweep ?journal () =
    Tradeoff.capacity_sweep ?journal cfg ~buffers ~caps:caps_1_10
  in
  let journaled_sweep () =
    let path = Filename.temp_file "budgetbuf-bench" ".journal" in
    Sys.remove path;
    let journal =
      match
        Durable.Journal.resume
          ~fingerprint:(Durable.Journal.fingerprint [ "bench" ])
          path
      with
      | Ok j -> j
      | Error msg -> failwith msg
    in
    Fun.protect
      ~finally:(fun () ->
        Durable.Journal.close journal;
        Sys.remove path)
      (fun () -> sweep ~journal ())
  in
  (* One warm-up sweep so neither variant pays first-run costs, then
     measure each variant end to end (best of [rounds], order swapped
     per round so ramping load cannot systematically penalise whichever
     runs second).  On a shared box a ~1 s sweep drifts by ±5% run to
     run, which drowns the few ms of fsync being measured, so the
     end-to-end difference is reported as informational only; the
     headline overhead is derived from the journal machinery's cost
     measured directly — everything journaling adds to a sweep is one
     [resume], [candidates] fsync'd [record]s and one [close], and that
     microbenchmark converges where the end-to-end delta cannot. *)
  ignore (sweep ());
  let rounds = 5 in
  let t_plain = ref infinity and t_journal = ref infinity in
  for round = 1 to rounds do
    let plain () = t_plain := Float.min !t_plain (once (fun () -> sweep ()))
    and journal () = t_journal := Float.min !t_journal (once journaled_sweep) in
    if round mod 2 = 0 then (plain (); journal ()) else (journal (); plain ())
  done;
  let t_plain = !t_plain and t_journal = !t_journal in
  let candidates = List.length caps_1_10 in
  let payload = String.make 180 'x' in
  let journal_cost =
    (* A realistic tradeoff payload is ~180 bytes; 20 reps of the full
       open/record*/close cycle give a stable minimum. *)
    let reps = 20 in
    let best = ref infinity in
    for _ = 1 to reps do
      let path = Filename.temp_file "budgetbuf-bench" ".journal" in
      Sys.remove path;
      let t =
        once (fun () ->
            match
              Durable.Journal.resume
                ~fingerprint:(Durable.Journal.fingerprint [ "bench" ])
                path
            with
            | Error msg -> failwith msg
            | Ok j ->
              for i = 0 to candidates - 1 do
                Durable.Journal.record j ~index:i ~payload
              done;
              Durable.Journal.close j)
      in
      Sys.remove path;
      best := Float.min !best t
    done;
    !best
  in
  let overhead_pct = 100.0 *. (journal_cost /. t_plain) in
  Format.fprintf ppf "  candidates:         %d@." candidates;
  Format.fprintf ppf "  plain sweep:        %8.1f ms@." (1000.0 *. t_plain);
  Format.fprintf ppf
    "  journaled sweep:    %8.1f ms (end-to-end; +/-5%% machine noise)@."
    (1000.0 *. t_journal);
  Format.fprintf ppf "  journal machinery:  %8.1f ms (%d fsync'd records)@."
    (1000.0 *. journal_cost) candidates;
  Format.fprintf ppf "  overhead:           %8.2f %% (target < 2 %%)@."
    overhead_pct;
  let oc = open_out "BENCH_durable.json" in
  Printf.fprintf oc
    "{ \"candidates\": %d, \"sweep_s_plain\": %.6f, \"sweep_s_journal\": \
     %.6f, \"journal_s\": %.6f, \"overhead_pct\": %.3f }\n"
    candidates t_plain t_journal journal_cost overhead_pct;
  close_out oc;
  Format.fprintf ppf "  written: BENCH_durable.json@."

(* ------------------------------------------------------------------ *)
(* Observability overhead: tracing cost on an instrumented sweep       *)
(* ------------------------------------------------------------------ *)

(* Wall-clock of the same solver-bound capacity sweep uninstrumented,
   with a null-sink context (metrics only) and with a file-sink trace.
   The targets of docs/observability.md — null sink under 1%, file
   sink under 5% — are reported, not asserted (a shared box drifts by
   a few percent run to run).  Also written to BENCH_obs.json. *)
let obs_report ppf =
  Format.fprintf ppf "@.=== Observability overhead (tracing + metrics) ===@.@.";
  let cfg = Workloads.Gen.chain ~n:24 () in
  let buffers = Config.all_buffers cfg in
  let once f =
    let t0 = Unix.gettimeofday () in
    ignore (f ());
    Unix.gettimeofday () -. t0
  in
  let sweep ?obs () =
    Tradeoff.capacity_sweep ?obs cfg ~buffers ~caps:caps_1_10
  in
  let null_sweep () =
    let obs = Obs.Ctx.make () in
    sweep ~obs ()
  in
  let file_sweep () =
    let path = Filename.temp_file "budgetbuf-bench" ".trace" in
    let sink = Obs.Sink.file path in
    let obs = Obs.Ctx.make ~sink () in
    Fun.protect
      ~finally:(fun () ->
        Obs.Sink.close sink;
        Sys.remove path)
      (fun () -> sweep ~obs ())
  in
  (* Warm up once, then best-of-rounds with the variant order rotated so
     ramping machine load cannot systematically penalise one of them. *)
  ignore (sweep ());
  let rounds = 5 in
  let t_plain = ref infinity
  and t_null = ref infinity
  and t_file = ref infinity in
  for round = 1 to rounds do
    let variants =
      [|
        (fun () -> t_plain := Float.min !t_plain (once (fun () -> sweep ())));
        (fun () -> t_null := Float.min !t_null (once null_sweep));
        (fun () -> t_file := Float.min !t_file (once file_sweep));
      |]
    in
    for k = 0 to 2 do
      variants.((round + k) mod 3) ()
    done
  done;
  let t_plain = !t_plain and t_null = !t_null and t_file = !t_file in
  let pct t = 100.0 *. (Float.max 0.0 (t -. t_plain) /. t_plain) in
  let null_pct = pct t_null and file_pct = pct t_file in
  Format.fprintf ppf "  candidates:         %d@." (List.length caps_1_10);
  Format.fprintf ppf "  plain sweep:        %8.1f ms@." (1000.0 *. t_plain);
  Format.fprintf ppf
    "  null-sink sweep:    %8.1f ms (%+.2f %%, target < 1 %%)@."
    (1000.0 *. t_null) null_pct;
  Format.fprintf ppf
    "  file-sink sweep:    %8.1f ms (%+.2f %%, target < 5 %%)@."
    (1000.0 *. t_file) file_pct;
  let oc = open_out "BENCH_obs.json" in
  Printf.fprintf oc
    "{ \"candidates\": %d, \"sweep_s_plain\": %.6f, \"sweep_s_null\": %.6f, \
     \"sweep_s_file\": %.6f, \"null_overhead_pct\": %.3f, \
     \"file_overhead_pct\": %.3f }\n"
    (List.length caps_1_10) t_plain t_null t_file null_pct file_pct;
  close_out oc;
  Format.fprintf ppf "  written: BENCH_obs.json@."

(* ------------------------------------------------------------------ *)
(* Exact-certification overhead: proof cost per candidate              *)
(* ------------------------------------------------------------------ *)

(* Wall-clock of [Certify.check] against the joint solve it certifies,
   accumulated over an Experiment-2-style capacity sweep on the paper's
   two instances plus a longer chain.  The target of docs/robustness.md
   — certification under 10% of solve time per candidate — is reported,
   not asserted.  Also written to BENCH_certify.json.  (The solve
   denominator itself already contains one certification, so the ratio
   is measured against the pessimistic baseline.) *)
let certify_report ppf =
  Format.fprintf ppf "@.=== Exact certification overhead ===@.@.";
  let instances =
    [
      ("paper T1", Workloads.Gen.paper_t1 ());
      ("paper T2", Workloads.Gen.paper_t2 ());
      ("chain n=12", Workloads.Gen.chain ~n:12 ());
    ]
  in
  let run (name, cfg) =
    let buffers = Config.all_buffers cfg in
    let solve_t = ref 0.0 and cert_t = ref 0.0 and n = ref 0 in
    List.iter
      (fun cap ->
        let candidate = Config.copy cfg in
        List.iter
          (fun b -> Config.set_max_capacity candidate b (Some cap))
          buffers;
        let t0 = Unix.gettimeofday () in
        match Mapping.solve candidate with
        | Error _ -> ()
        | Ok r ->
          solve_t := !solve_t +. (Unix.gettimeofday () -. t0);
          (* The certifier is far faster than the solve: average a
             small batch so the clock granularity cannot dominate. *)
          let reps = 10 in
          let t1 = Unix.gettimeofday () in
          for _ = 1 to reps do
            ignore (Budgetbuf.Certify.check candidate r.Mapping.mapped)
          done;
          cert_t :=
            !cert_t +. ((Unix.gettimeofday () -. t1) /. float_of_int reps);
          incr n)
      caps_1_10;
    (name, !n, !solve_t, !cert_t)
  in
  let rows = List.map run instances in
  List.iter
    (fun (name, n, s, c) ->
      Format.fprintf ppf
        "  %-14s %2d candidates   solve %8.1f ms   certify %6.2f ms   \
         (%.2f %%)@."
        name n (1000.0 *. s) (1000.0 *. c)
        (100.0 *. (c /. Float.max 1e-9 s)))
    rows;
  let n = List.fold_left (fun acc (_, n, _, _) -> acc + n) 0 rows in
  let solve_s = List.fold_left (fun acc (_, _, s, _) -> acc +. s) 0.0 rows in
  let cert_s = List.fold_left (fun acc (_, _, _, c) -> acc +. c) 0.0 rows in
  let overhead_pct = 100.0 *. (cert_s /. Float.max 1e-9 solve_s) in
  Format.fprintf ppf "  overhead:           %8.2f %% (target < 10 %%)@."
    overhead_pct;
  let oc = open_out "BENCH_certify.json" in
  Printf.fprintf oc
    "{ \"candidates\": %d, \"solve_s\": %.6f, \"certify_s\": %.6f, \
     \"overhead_pct\": %.3f }\n"
    n solve_s cert_s overhead_pct;
  close_out oc;
  Format.fprintf ppf "  written: BENCH_certify.json@."

(* ------------------------------------------------------------------ *)
(* Admission server under load, faults and a crash                      *)
(* ------------------------------------------------------------------ *)

(* The solve-as-a-service acceptance run (docs/serving.md): a warm
   multi-client phase measuring reply latency and certificate coverage,
   a fault-injection phase that must recover on a later rung, an
   overload burst against a one-slot queue that must shed with explicit
   [overloaded] replies rather than queue unboundedly, and a kill/
   restart phase whose journal must answer the replayed workload almost
   entirely from cache.  Every roundtrip returns — a hung connection
   would hang the bench itself.  Also written to BENCH_serve.json. *)
let serve_report ~jobs ppf =
  Format.fprintf ppf "@.=== Admission server (load, faults, crash) ===@.@.";
  (* The crash phase writes into sockets of a server that has already
     halted and restored the default SIGPIPE disposition; the bench
     must see EPIPE as an Error, not die of the signal. *)
  let saved_pipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  Fun.protect ~finally:(fun () -> Sys.set_signal Sys.sigpipe saved_pipe)
  @@ fun () ->
  let tmp name =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "bb-bench-%d-%s" (Unix.getpid ()) name)
  in
  let rm path = try Sys.remove path with Sys_error _ -> () in
  let t1_cap cap =
    let cfg = Workloads.Gen.paper_t1 () in
    Taskgraph.Config.set_max_capacity cfg
      (Taskgraph.Config.find_buffer cfg "bab")
      (Some cap);
    Format.asprintf "%a" Taskgraph.Config.pp cfg
  in
  let certified = function
    | Serve.Protocol.Admitted { certificate; _ } ->
      String.length certificate >= 2 && String.sub certificate 0 2 = "ok"
    | _ -> false
  in
  let start cfg =
    let result = ref (Error "server never ran") in
    let th = Thread.create (fun () -> result := Serve.Server.run cfg) () in
    (th, result)
  in
  let percentile sorted p =
    let n = Array.length sorted in
    sorted.(max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1)))
  in
  (* -- warm phase: 4 clients x 8 instances, release after admit ------ *)
  let warm_caps = [ 10; 11; 12; 13; 14; 15; 16; 17 ] in
  let warm_texts = List.map t1_cap warm_caps in
  let journal = tmp "serve.cachej" in
  rm journal;
  let sock = tmp "serve-warm.sock" in
  let th, res =
    start
      {
        (Serve.Server.default_config ~socket_path:sock) with
        Serve.Server.cache_path = Some journal;
        domains = jobs;
        batch = jobs;
      }
  in
  let lock = Mutex.create () in
  let lats = ref [] and hits = ref 0 and misses = ref 0 in
  let certs = ref 0 and answered = ref 0 and errors = ref 0 in
  let t0 = Unix.gettimeofday () in
  let clients =
    List.init 4 (fun c ->
        Thread.create
          (fun () ->
            match
              Serve.Client.with_connection sock (fun conn ->
                  List.iteri
                    (fun i text ->
                      let id = Printf.sprintf "w%d-%d" c i in
                      let t = Unix.gettimeofday () in
                      (match
                         Serve.Client.roundtrip conn
                           (Serve.Protocol.Admit
                              {
                                id;
                                config = text;
                                deadline_s = None;
                                fault = None;
                                retry = false;
                              })
                       with
                      | Ok reply ->
                        let dt = Unix.gettimeofday () -. t in
                        Mutex.lock lock;
                        incr answered;
                        lats := dt :: !lats;
                        if certified reply then incr certs;
                        (match reply with
                        | Serve.Protocol.Admitted { cache = `Hit; _ } ->
                          incr hits
                        | Serve.Protocol.Admitted { cache = `Miss; _ } ->
                          incr misses
                        | _ -> ());
                        Mutex.unlock lock
                      | Error _ ->
                        Mutex.lock lock;
                        incr errors;
                        Mutex.unlock lock);
                      ignore
                        (Serve.Client.roundtrip conn
                           (Serve.Protocol.Release { id })))
                    warm_texts;
                  Ok ())
            with
            | Ok () -> ()
            | Error _ ->
              Mutex.lock lock;
              incr errors;
              Mutex.unlock lock)
          ())
  in
  List.iter Thread.join clients;
  let elapsed = Unix.gettimeofday () -. t0 in
  (* -- fault phase: stalled first attempts on the same server -------- *)
  let recovered = ref 0 and fault_total = 4 in
  (match
     Serve.Client.with_connection sock (fun conn ->
         List.iter
           (fun cap ->
             match
               Serve.Client.roundtrip conn
                 (Serve.Protocol.Admit
                    {
                      id = Printf.sprintf "f%d" cap;
                      config = t1_cap cap;
                      deadline_s = None;
                      fault = Some "stall";
                      retry = false;
                    })
             with
             | Ok (Serve.Protocol.Admitted { attempts; _ }) when attempts > 1
               -> incr recovered
             | _ -> ())
           [ 20; 21; 22; 23 ];
         Ok ())
   with
  | Ok () -> ()
  | Error _ -> incr errors);
  (match
     Serve.Client.with_connection sock (fun conn ->
         Serve.Client.roundtrip conn Serve.Protocol.Shutdown)
   with
  | Ok _ -> ()
  | Error _ -> incr errors);
  Thread.join th;
  (match !res with Ok _ -> () | Error _ -> incr errors);
  let lat_sorted =
    let a = Array.of_list !lats in
    Array.sort compare a;
    a
  in
  let p50 = if Array.length lat_sorted = 0 then 0.0 else percentile lat_sorted 0.50
  and p99 = if Array.length lat_sorted = 0 then 0.0 else percentile lat_sorted 0.99 in
  let req_s = float_of_int !answered /. Float.max 1e-9 elapsed in
  Format.fprintf ppf
    "  warm: %d requests, %d certified, %d hits / %d misses, p50 %.1f ms, \
     p99 %.1f ms, %.0f req/s@."
    !answered !certs !hits !misses (1000.0 *. p50) (1000.0 *. p99) req_s;
  Format.fprintf ppf "  faults: %d/%d recovered on a later rung@." !recovered
    fault_total;
  (* -- overload burst: one-slot queue, deliberately slow solves ------ *)
  let sock2 = tmp "serve-load.sock" in
  let th2, res2 =
    start
      {
        (Serve.Server.default_config ~socket_path:sock2) with
        Serve.Server.queue_capacity = 1;
        batch = 1;
        domains = 1;
      }
  in
  let burst = 12 in
  let shed = ref 0 and burst_answered = ref 0 in
  let primer =
    Thread.create
      (fun () ->
        ignore
          (Serve.Client.with_connection sock2 (fun conn ->
               Serve.Client.roundtrip conn
                 (Serve.Protocol.Admit
                    {
                      id = "primer";
                      config = t1_cap 9;
                      deadline_s = None;
                      fault = Some "slow";
                      retry = false;
                    }))))
      ()
  in
  Thread.delay 0.1;
  let burst_threads =
    List.init burst (fun i ->
        Thread.create
          (fun () ->
            match
              Serve.Client.with_connection sock2 (fun conn ->
                  Serve.Client.roundtrip conn
                    (Serve.Protocol.Admit
                       {
                         id = Printf.sprintf "b%d" i;
                         config = t1_cap (40 + i);
                         deadline_s = None;
                         fault = Some "slow";
                         retry = false;
                       }))
            with
            | Ok reply ->
              Mutex.lock lock;
              incr burst_answered;
              (match reply with
              | Serve.Protocol.Overloaded _ -> incr shed
              | _ -> ());
              Mutex.unlock lock
            | Error _ ->
              Mutex.lock lock;
              incr errors;
              Mutex.unlock lock)
          ())
  in
  List.iter Thread.join burst_threads;
  Thread.join primer;
  (match
     Serve.Client.with_connection sock2 (fun conn ->
         Serve.Client.roundtrip conn Serve.Protocol.Shutdown)
   with
  | Ok _ -> ()
  | Error _ -> incr errors);
  Thread.join th2;
  (match !res2 with Ok _ -> () | Error _ -> incr errors);
  Format.fprintf ppf
    "  overload: %d/%d burst requests answered, %d shed with explicit \
     overloaded replies@."
    !burst_answered burst !shed;
  (* -- crash and restart: journal answers the replayed workload ------ *)
  let journal2 = tmp "serve-crash.cachej" in
  rm journal2;
  let crash_caps = [ 30; 31; 32; 33; 34; 35; 36; 37 ] in
  let sock3 = tmp "serve-crash.sock" in
  let th3, res3 =
    start
      {
        (Serve.Server.default_config ~socket_path:sock3) with
        Serve.Server.cache_path = Some journal2;
        halt_after_admits = Some 6;
      }
  in
  let dropped = ref 0 in
  ignore
    (Serve.Client.with_connection sock3 (fun conn ->
         List.iteri
           (fun i cap ->
             match
               Serve.Client.roundtrip conn
                 (Serve.Protocol.Admit
                    {
                      id = Printf.sprintf "c%d" i;
                      config = t1_cap cap;
                      deadline_s = None;
                      fault = None;
                      retry = false;
                    })
             with
             | Ok _ ->
               ignore
                 (Serve.Client.roundtrip conn
                    (Serve.Protocol.Release { id = Printf.sprintf "c%d" i }))
             | Error _ -> incr dropped)
           crash_caps;
         Ok ()));
  Thread.join th3;
  let halted = match !res3 with Ok (Serve.Server.Halted, _) -> true | _ -> false in
  let th4, res4 =
    start
      {
        (Serve.Server.default_config ~socket_path:sock3) with
        Serve.Server.cache_path = Some journal2;
      }
  in
  let replay_hits = ref 0 and replay_total = ref 0 in
  ignore
    (Serve.Client.with_connection sock3 (fun conn ->
         for round = 1 to 5 do
           List.iteri
             (fun i cap ->
               let id = Printf.sprintf "r%d-%d" round i in
               (match
                  Serve.Client.roundtrip conn
                    (Serve.Protocol.Admit
                       {
                         id;
                         config = t1_cap cap;
                         deadline_s = None;
                         fault = None;
                         retry = false;
                       })
                with
               | Ok (Serve.Protocol.Admitted { cache = `Hit; _ }) ->
                 incr replay_hits;
                 incr replay_total
               | Ok _ -> incr replay_total
               | Error _ -> incr errors);
               ignore
                 (Serve.Client.roundtrip conn (Serve.Protocol.Release { id })))
             crash_caps
         done;
         ignore (Serve.Client.roundtrip conn Serve.Protocol.Shutdown);
         Ok ()));
  Thread.join th4;
  (match !res4 with Ok _ -> () | Error _ -> incr errors);
  rm journal;
  rm journal2;
  let hit_rate =
    float_of_int !replay_hits /. Float.max 1.0 (float_of_int !replay_total)
  in
  Format.fprintf ppf
    "  crash/restart: halted %s after 6 settled admits (%d dropped without \
     reply), replay %d/%d from cache (%.1f%%, target > 90%%)@."
    (if halted then "cleanly" else "UNEXPECTEDLY")
    !dropped !replay_hits !replay_total (100.0 *. hit_rate);
  Format.fprintf ppf "  hung connections: 0 (every roundtrip returned); \
                      transport errors: %d@."
    !errors;
  let oc = open_out "BENCH_serve.json" in
  Printf.fprintf oc
    "{ \"warm\": { \"requests\": %d, \"certified\": %d, \"cache_hits\": %d, \
     \"cache_misses\": %d, \"p50_ms\": %.3f, \"p99_ms\": %.3f, \"req_s\": \
     %.1f },\n\
    \  \"faults\": { \"injected\": %d, \"recovered\": %d },\n\
    \  \"overload\": { \"burst\": %d, \"answered\": %d, \"shed\": %d },\n\
    \  \"restart\": { \"halted\": %b, \"dropped\": %d, \"replayed\": %d, \
     \"cache_hits\": %d, \"hit_rate\": %.4f },\n\
    \  \"transport_errors\": %d }\n"
    !answered !certs !hits !misses (1000.0 *. p50) (1000.0 *. p99) req_s
    fault_total !recovered burst !burst_answered !shed halted !dropped
    !replay_total !replay_hits hit_rate !errors;
  close_out oc;
  Format.fprintf ppf "  written: BENCH_serve.json@."

(* ------------------------------------------------------------------ *)
(* Chaos campaign: availability under a deterministic fault schedule   *)
(* ------------------------------------------------------------------ *)

(* The chaos acceptance run (docs/robustness.md): a server armed with a
   seeded fault schedule — torn replies, dropped connections, handler
   stalls and exceptions, failed and corrupted journal writes — is
   driven through three rounds of admits by the resilient client.
   Deliverables: availability (target >= 99%: every request reaches a
   genuine verdict within the retry budget), the
   every-solved-reply-certified invariant, zero leaked admissions,
   reply latency through the faults, a same-seed determinism check
   (two runs, byte-identical injection logs), and the journal
   compaction ratio of a deliberately overfilled bounded cache.  Also
   written to BENCH_chaos.json. *)
let chaos_report ppf =
  Format.fprintf ppf
    "@.=== Chaos campaign (availability under injected faults) ===@.@.";
  let saved_pipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  Fun.protect ~finally:(fun () -> Sys.set_signal Sys.sigpipe saved_pipe)
  @@ fun () ->
  let tmp name =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "bb-bench-%d-%s" (Unix.getpid ()) name)
  in
  let rm path = try Sys.remove path with Sys_error _ -> () in
  let t1_cap cap =
    let cfg = Workloads.Gen.paper_t1 () in
    Taskgraph.Config.set_max_capacity cfg
      (Taskgraph.Config.find_buffer cfg "bab")
      (Some cap);
    Format.asprintf "%a" Taskgraph.Config.pp cfg
  in
  let certified = function
    | Serve.Protocol.Admitted { certificate; _ } ->
      String.length certificate >= 2 && String.sub certificate 0 2 = "ok"
    | _ -> false
  in
  let start cfg =
    let result = ref (Error "server never ran") in
    let th = Thread.create (fun () -> result := Serve.Server.run cfg) () in
    (th, result)
  in
  let percentile sorted p =
    let n = Array.length sorted in
    sorted.(max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1)))
  in
  let errors = ref 0 in
  (* One full campaign: 3 rounds x 4 instances through the resilient
     client against a chaos-armed, reconciling, bounded-cache server.
     Returns the counters and the injection log. *)
  let run_campaign tag spec =
    let sock = tmp (Printf.sprintf "chaos-%s.sock" tag) in
    let journal = tmp (Printf.sprintf "chaos-%s.cachej" tag) in
    rm journal;
    let chaos = Serve.Chaos.create spec in
    let th, res =
      start
        {
          (Serve.Server.default_config ~socket_path:sock) with
          Serve.Server.cache_path = Some journal;
          cache_max_entries = Some 4;
          reconcile = true;
          chaos = Some chaos;
        }
    in
    let texts = List.map t1_cap [ 10; 11; 12; 13 ] in
    let retry = { Serve.Client.default_retry with attempts = 8 } in
    let attempted = ref 0
    and answered = ref 0
    and uncertified = ref 0
    and lats = ref [] in
    for round = 0 to 2 do
      List.iteri
        (fun i text ->
          let id = Printf.sprintf "%s%d-%d" tag round i in
          incr attempted;
          let t = Unix.gettimeofday () in
          (match
             Serve.Client.submit ~retry ~socket:sock
               (Serve.Protocol.Admit
                  {
                    id;
                    config = text;
                    deadline_s = None;
                    fault = None;
                    retry = false;
                  })
           with
          | Ok (Serve.Protocol.Admitted _ as reply) ->
            lats := (Unix.gettimeofday () -. t) :: !lats;
            incr answered;
            if not (certified reply) then incr uncertified
          | Ok _ | Error _ -> incr errors);
          match
            Serve.Client.submit ~retry ~socket:sock
              (Serve.Protocol.Release { id })
          with
          | Ok (Serve.Protocol.Released _) -> ()
          | Ok _ | Error _ -> incr errors)
        texts
    done;
    (* Shut down through the chaos: an injected failure can eat the
       Bye, in which case the listener goes away — that is success. *)
    let rec shut tries =
      if tries = 0 then incr errors
      else
        match
          Serve.Client.with_connection
            ~backoff:{ Serve.Client.default_backoff with retries = 2 }
            sock
            (fun conn -> Serve.Client.roundtrip conn Serve.Protocol.Shutdown)
        with
        | Ok Serve.Protocol.Bye -> ()
        | Ok _ -> shut (tries - 1)
        | Error _ -> ()
    in
    shut 5;
    Thread.join th;
    let live =
      match !res with
      | Ok (_, s) -> s.Serve.Protocol.live
      | Error _ ->
        incr errors;
        -1
    in
    rm journal;
    (!attempted, !answered, !uncertified, !lats, live, Serve.Chaos.log chaos)
  in
  let spec = { Serve.Chaos.skind = Serve.Chaos.Mix; every = 3; seed = 2026 } in
  let attempted, answered, uncertified, lats, live, log1 =
    run_campaign "a" spec
  in
  let _, _, _, _, _, log2 = run_campaign "b" spec in
  let logs_match = List.equal String.equal log1 log2 && log1 <> [] in
  let lat_sorted =
    let a = Array.of_list lats in
    Array.sort compare a;
    a
  in
  let p50 =
    if Array.length lat_sorted = 0 then 0.0 else percentile lat_sorted 0.50
  and p99 =
    if Array.length lat_sorted = 0 then 0.0 else percentile lat_sorted 0.99
  in
  let availability =
    float_of_int answered /. Float.max 1.0 (float_of_int attempted)
  in
  Format.fprintf ppf
    "  campaign: %d/%d answered (availability %.1f%%, target >= 99%%), %d \
     uncertified solved replies, %d injections, p50 %.1f ms, p99 %.1f ms@."
    answered attempted (100.0 *. availability) uncertified (List.length log1)
    (1000.0 *. p50) (1000.0 *. p99);
  Format.fprintf ppf "  leaked admissions after the dust settles: %d@." live;
  Format.fprintf ppf "  determinism: same seed, %s injection logs@."
    (if logs_match then "byte-identical" else "DIVERGENT");
  (* Compaction: overfill a bounded cache and measure how much journal
     the size-triggered rewrites reclaimed. *)
  let stored = 64 and bound = 8 in
  let cpath = tmp "chaos-compact.cachej" in
  rm cpath;
  let total_lines, journal_lines, compactions =
    match Serve.Cache.open_ ~max_entries:bound cpath with
    | Error _ ->
      incr errors;
      (0, 0, 0)
    | Ok t ->
      for i = 1 to stored do
        Serve.Cache.store t
          ~key:(Printf.sprintf "k%02d" i)
          (Serve.Cache.Unsat { reason = "bench filler" })
      done;
      let s = Serve.Cache.stats t in
      Serve.Cache.close t;
      rm cpath;
      (s.Serve.Cache.total_lines, s.Serve.Cache.journal_lines,
       s.Serve.Cache.compactions)
  in
  let ratio =
    float_of_int journal_lines /. Float.max 1.0 (float_of_int total_lines)
  in
  Format.fprintf ppf
    "  compaction: %d stored into a %d-entry bound -> %d journal lines kept \
     of %d ever (%.1f%% of the unbounded journal, %d compactions)@."
    stored bound journal_lines total_lines (100.0 *. ratio) compactions;
  Format.fprintf ppf "  transport errors (after retries): %d@." !errors;
  let oc = open_out "BENCH_chaos.json" in
  Printf.fprintf oc
    "{ \"campaign\": { \"requests\": %d, \"answered\": %d, \"availability\": \
     %.4f, \"uncertified_solved\": %d, \"leaked_admissions\": %d, \
     \"injections\": %d, \"p50_ms\": %.3f, \"p99_ms\": %.3f },\n\
    \  \"determinism\": { \"runs\": 2, \"logs_match\": %b },\n\
    \  \"compaction\": { \"stored\": %d, \"live_bound\": %d, \
     \"journal_lines\": %d, \"total_lines\": %d, \"ratio\": %.4f, \
     \"compactions\": %d },\n\
    \  \"errors\": %d }\n"
    attempted answered availability uncertified live (List.length log1)
    (1000.0 *. p50) (1000.0 *. p99) logs_match stored bound journal_lines
    total_lines ratio compactions !errors;
  close_out oc;
  Format.fprintf ppf "  written: BENCH_chaos.json@."

(* --- The crash-storm campaign: process isolation under fire --------

   Drives a server whose solves run in isolated [budgetbuf worker]
   subprocesses through a deterministic storm of good, crashing,
   hanging and OOM-ing requests (fault kinds picked by
   [Robust.Fault.det_int], executed inside the worker's rlimit box).
   Deliverables: 100% of requests answered with a structured verdict
   while workers die around them, zero leaked admissions, a same-seed
   determinism check (two campaigns, byte-identical injection logs),
   and the kill -9 drill — SIGKILL a real [budgetbuf serve] process,
   restart it on the same journals, and prove the memo cache answers
   byte-identically and the poison verdict holds without sacrificing
   another worker.  Also written to BENCH_crash.json. *)
let crash_report ppf =
  Format.fprintf ppf
    "@.=== Crash storm (process-isolated workers under fire) ===@.@.";
  Format.fprintf ppf
    "  (workers pass stderr through: any 'Out of memory' lines below are \
     OOM-faulted workers dying inside their rlimit box, as intended)@.";
  let saved_pipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  Fun.protect ~finally:(fun () -> Sys.set_signal Sys.sigpipe saved_pipe)
  @@ fun () ->
  let tmp name =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "bb-bench-%d-%s" (Unix.getpid ()) name)
  in
  let rm path = try Sys.remove path with Sys_error _ -> () in
  (* The worker binary sits next to the bench in the build tree. *)
  let cli_exe =
    Filename.concat
      (Filename.dirname Sys.executable_name)
      "../bin/budgetbuf_cli.exe"
  in
  let t1_cap cap =
    let cfg = Workloads.Gen.paper_t1 () in
    Taskgraph.Config.set_max_capacity cfg
      (Taskgraph.Config.find_buffer cfg "bab")
      (Some cap);
    Format.asprintf "%a" Taskgraph.Config.pp cfg
  in
  let start cfg =
    let result = ref (Error "server never ran") in
    let th = Thread.create (fun () -> result := Serve.Server.run cfg) () in
    (th, result)
  in
  let errors = ref 0 in
  let requests = 24 and seed = 2026 in
  (* One storm: [requests] admits, every third one carrying a process
     fault whose kind det_int picks — crash (SIGKILL mid-solve), hang
     (reaped past deadline + grace) or oom (dies against the rlimit
     box).  Spacing the faults keeps the storm inside the circuit
     breaker's threshold, so it measures containment, not lockout. *)
  let run_storm tag =
    let sock = tmp (Printf.sprintf "crash-%s.sock" tag) in
    let quarantine = tmp (Printf.sprintf "crash-%s.quarj" tag) in
    rm quarantine;
    let th, res =
      start
        {
          (Serve.Server.default_config ~socket_path:sock) with
          Serve.Server.isolate = Some 2;
          worker_exe = Some cli_exe;
          rlimit_mem_mb = Some 512;
          quarantine_path = Some quarantine;
        }
    in
    let answered = ref 0 and log = ref [] in
    (match
       Serve.Client.with_connection sock (fun c ->
           for i = 0 to requests - 1 do
             let kind =
               if i mod 3 <> 2 then "good"
               else
                 match
                   Robust.Fault.det_int ~seed ~salt:"bench-crash-kind"
                     ~bound:3 i
                 with
                 | 0 -> "crash"
                 | 1 -> "hang"
                 | _ -> "oom"
             in
             let fault = if kind = "good" then None else Some kind in
             let deadline_s = if kind = "hang" then Some 0.6 else Some 30.0 in
             let id = Printf.sprintf "%s%02d" tag i in
             (match
                Serve.Client.roundtrip c
                  (Serve.Protocol.Admit
                     {
                       id;
                       config = t1_cap (10 + i);
                       deadline_s;
                       fault;
                       retry = false;
                     })
              with
             | Ok reply ->
               incr answered;
               log :=
                 Printf.sprintf "%02d:%s:%s" i kind
                   (Serve.Protocol.status_of_response reply)
                 :: !log;
               (match reply with
               | Serve.Protocol.Admitted _ -> begin
                 match
                   Serve.Client.roundtrip c (Serve.Protocol.Release { id })
                 with
                 | Ok (Serve.Protocol.Released _) -> ()
                 | Ok _ | Error _ -> incr errors
               end
               | _ -> ())
             | Error _ -> incr errors)
           done;
           Serve.Client.roundtrip c Serve.Protocol.Shutdown)
     with
    | Ok Serve.Protocol.Bye -> ()
    | Ok _ | Error _ -> incr errors);
    Thread.join th;
    let stats =
      match !res with
      | Ok (_, s) -> Some s
      | Error _ ->
        incr errors;
        None
    in
    rm quarantine;
    (!answered, List.rev !log, stats)
  in
  let answered, log1, stats = run_storm "a" in
  let _, log2, _ = run_storm "b" in
  let logs_match = List.equal String.equal log1 log2 && log1 <> [] in
  let faults = List.length (List.filter (fun i -> i mod 3 = 2)
                              (List.init requests Fun.id)) in
  let crashes, reaped_timeouts, leaked =
    match stats with
    | Some s ->
      (s.Serve.Protocol.worker_crashes, s.Serve.Protocol.timed_out,
       s.Serve.Protocol.live)
    | None -> (-1, -1, -1)
  in
  let answered_pct =
    100.0 *. float_of_int answered /. float_of_int requests
  in
  Format.fprintf ppf
    "  storm: %d/%d answered (%.1f%%, target 100%%), %d faults injected, %d \
     worker crashes contained, %d hangs reaped@."
    answered requests answered_pct faults crashes reaped_timeouts;
  Format.fprintf ppf "  leaked admissions after the dust settles: %d@." leaked;
  Format.fprintf ppf "  determinism: same seed, %s injection logs@."
    (if logs_match then "byte-identical" else "DIVERGENT");
  (* The kill -9 drill, against a real serve process. *)
  let sock = tmp "crash-k9.sock" in
  let cache = tmp "crash-k9.cachej" in
  let quarantine = tmp "crash-k9.quarj" in
  rm cache;
  rm quarantine;
  let serve_args =
    [
      "serve"; "--socket"; sock; "--cache"; cache; "--isolate"; "1";
      "--quarantine"; quarantine;
    ]
  in
  let spawn () =
    let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
    (* The drill measures crash recovery, not chaos: don't let an
       inherited BUDGETBUF_CHAOS schedule leak into the server. *)
    let env =
      Array.of_list
        (List.filter
           (fun kv -> not (String.starts_with ~prefix:"BUDGETBUF_CHAOS=" kv))
           (Array.to_list (Unix.environment ())))
    in
    let pid =
      Unix.create_process_env cli_exe
        (Array.of_list (cli_exe :: serve_args))
        env devnull devnull devnull
    in
    Unix.close devnull;
    pid
  in
  let backoff = { Serve.Client.default_backoff with retries = 40 } in
  let good = t1_cap 40 and poison = t1_cap 41 in
  let admit c id ?fault config =
    Serve.Client.roundtrip c
      (Serve.Protocol.Admit
         { id; config; deadline_s = Some 30.0; fault; retry = false })
  in
  let pid1 = spawn () in
  let first_mapping = ref "" in
  (match
     Serve.Client.with_connection ~backoff sock (fun c ->
         (match admit c "good" good with
         | Ok (Serve.Protocol.Admitted { mapping; _ }) ->
           first_mapping := mapping
         | Ok _ | Error _ -> incr errors);
         (match admit c "p1" ~fault:"crash" poison with
         | Ok (Serve.Protocol.Failed _) -> ()
         | Ok _ | Error _ -> incr errors);
         (match admit c "p2" ~fault:"crash" poison with
         | Ok (Serve.Protocol.Failed _) -> ()
         | Ok _ | Error _ -> incr errors);
         Ok ())
   with
  | Ok () -> ()
  | Error _ -> incr errors);
  Unix.kill pid1 Sys.sigkill;
  ignore (Unix.waitpid [] pid1);
  let pid2 = spawn () in
  let cache_hit = ref false
  and mapping_identical = ref false
  and poison_survives = ref false
  and new_crashes = ref (-1) in
  (match
     Serve.Client.with_connection ~backoff sock (fun c ->
         (match admit c "good2" good with
         | Ok (Serve.Protocol.Admitted { cache = hit; mapping; _ }) ->
           cache_hit := hit = `Hit;
           mapping_identical := mapping = !first_mapping
         | Ok _ | Error _ -> incr errors);
         (match admit c "p3" poison with
         | Ok (Serve.Protocol.Poisoned _) -> poison_survives := true
         | Ok _ | Error _ -> incr errors);
         (match Serve.Client.roundtrip c Serve.Protocol.Stats with
         | Ok (Serve.Protocol.Stats_reply s) ->
           new_crashes := s.Serve.Protocol.worker_crashes
         | Ok _ | Error _ -> incr errors);
         Serve.Client.roundtrip c Serve.Protocol.Shutdown)
   with
  | Ok Serve.Protocol.Bye -> ()
  | Ok _ | Error _ -> incr errors);
  ignore (Unix.waitpid [] pid2);
  rm cache;
  rm quarantine;
  Format.fprintf ppf
    "  kill -9: cache %s after restart (mapping %s), poison verdict %s, %d \
     new worker crashes@."
    (if !cache_hit then "hit" else "MISSED")
    (if !mapping_identical then "byte-identical" else "DIVERGENT")
    (if !poison_survives then "held from the journal" else "LOST")
    !new_crashes;
  Format.fprintf ppf "  transport errors: %d@." !errors;
  let oc = open_out "BENCH_crash.json" in
  Printf.fprintf oc
    "{ \"storm\": { \"requests\": %d, \"answered\": %d, \"answered_pct\": \
     %.1f, \"faults_injected\": %d, \"worker_crashes\": %d, \"reaped\": %d, \
     \"leaked_admissions\": %d },\n\
    \  \"determinism\": { \"runs\": 2, \"logs_match\": %b },\n\
    \  \"kill9\": { \"cache_hit_after_restart\": %b, \"mapping_identical\": \
     %b, \"poison_survives\": %b, \"new_crashes_after_restart\": %d },\n\
    \  \"errors\": %d }\n"
    requests answered answered_pct faults crashes reaped_timeouts leaked
    logs_match !cache_hit !mapping_identical !poison_survives !new_crashes
    !errors;
  close_out oc;
  Format.fprintf ppf "  written: BENCH_crash.json@."

(* ------------------------------------------------------------------ *)
(* Tightening: analytic vs simulated buffer totals                     *)
(* ------------------------------------------------------------------ *)

(* How much of the analytic (conservative) buffer allocation the
   simulator-in-the-loop dichotomy gives back (docs/tightening.md):
   per workload, the container totals before and after, the probes the
   searches spent, and the wall time of the whole tighten run.  Also
   written to BENCH_tighten.json. *)
let tighten_report ppf =
  Format.fprintf ppf "@.=== Simulator-in-the-loop tightening ===@.@.";
  let named =
    [
      ("t1", Workloads.Gen.paper_t1 ());
      ("t2", Workloads.Gen.paper_t2 ());
      ("chain8", Workloads.Gen.chain ~n:8 ());
      ("split4", Workloads.Gen.split_join ~branches:4 ());
      ("ring4", Workloads.Gen.ring ~n:4 ~initial:2 ());
    ]
  in
  let random =
    List.init 15 (fun i ->
        let seed = i + 1 in
        let rng = Workloads.Rng.create (Int64.of_int seed) in
        ( Printf.sprintf "rand%02d" seed,
          Workloads.Gen.random_chain rng ~n:(2 + (i mod 5)) () ))
  in
  let rows =
    List.filter_map
      (fun (name, cfg) ->
        match Mapping.solve cfg with
        | Error _ -> None
        | Ok r -> begin
          let t0 = Unix.gettimeofday () in
          match Tighten.run cfg r.Mapping.mapped with
          | Error _ -> None
          | Ok t -> Some (name, t, Unix.gettimeofday () -. t0)
        end)
      (named @ random)
  in
  Format.fprintf ppf "  %-8s %9s %9s %7s %7s %9s@." "workload" "analytic"
    "simulated" "saved" "probes" "wall";
  List.iter
    (fun (name, (t : Tighten.t), wall) ->
      let a = t.Tighten.analytic_containers
      and m = t.Tighten.tightened_containers in
      let saved = if a = 0 then 0.0 else 100.0 *. float_of_int (a - m) /. float_of_int a in
      Format.fprintf ppf "  %-8s %9d %9d %6.1f%% %7d %7.1f ms%s@." name a m
        saved t.Tighten.probes (1000.0 *. wall)
        (if t.Tighten.repaired then "  (repaired)" else ""))
    rows;
  let improved =
    List.length
      (List.filter
         (fun (_, (t : Tighten.t), _) ->
           t.Tighten.tightened_containers < t.Tighten.analytic_containers)
         rows)
  in
  let total_a =
    List.fold_left
      (fun acc (_, (t : Tighten.t), _) -> acc + t.Tighten.analytic_containers)
      0 rows
  and total_m =
    List.fold_left
      (fun acc (_, (t : Tighten.t), _) -> acc + t.Tighten.tightened_containers)
      0 rows
  in
  Format.fprintf ppf "@.  improved:  %d/%d workloads@." improved
    (List.length rows);
  Format.fprintf ppf "  total:     %d containers analytic, %d simulated \
                      (-%.1f%%)@."
    total_a total_m
    (if total_a = 0 then 0.0
     else 100.0 *. float_of_int (total_a - total_m) /. float_of_int total_a);
  let oc = open_out "BENCH_tighten.json" in
  Printf.fprintf oc "{ \"workloads\": [";
  List.iteri
    (fun i (name, (t : Tighten.t), wall) ->
      Printf.fprintf oc
        "%s\n  { \"name\": %S, \"analytic\": %d, \"simulated\": %d, \
         \"probes\": %d, \"repaired\": %b, \"wall_s\": %.6f }"
        (if i = 0 then "" else ",")
        name t.Tighten.analytic_containers t.Tighten.tightened_containers
        t.Tighten.probes t.Tighten.repaired wall)
    rows;
  Printf.fprintf oc
    " ],\n  \"improved\": %d, \"total_analytic\": %d, \"total_simulated\": \
     %d }\n"
    improved total_a total_m;
  close_out oc;
  Format.fprintf ppf "  written: BENCH_tighten.json@."

let () =
  let ppf = Format.std_formatter in
  let jobs =
    ref
      (try Parallel.Pool.default_domains ()
       with Invalid_argument msg ->
         Format.eprintf "error: %s@." msg;
         exit 2)
  in
  let positional = ref [] in
  let rec parse = function
    | [] -> ()
    | "--jobs" :: n :: rest -> begin
      match int_of_string_opt n with
      | Some j when j >= 1 ->
        jobs := j;
        parse rest
      | Some _ | None ->
        Format.eprintf "error: --jobs must be >= 1@.";
        exit 2
    end
    | "--jobs" :: [] ->
      Format.eprintf "error: --jobs expects a count@.";
      exit 2
    | arg :: rest ->
      positional := arg :: !positional;
      parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  let with_pool f =
    if !jobs = 1 then f None
    else Parallel.Pool.with_pool ~domains:!jobs (fun pool -> f (Some pool))
  in
  match List.rev !positional with
  | [] ->
    with_pool (fun pool -> Experiments.all ?pool ppf);
    par_report ~jobs:!jobs ppf;
    durable_report ppf;
    certify_report ppf;
    obs_report ppf;
    serve_report ~jobs:!jobs ppf;
    chaos_report ppf;
    crash_report ppf;
    tighten_report ppf;
    bechamel_suite ()
  | [ "tables" ] -> with_pool (fun pool -> Experiments.all ?pool ppf)
  | [ "bench" ] ->
    par_report ~jobs:!jobs ppf;
    bechamel_suite ()
  | [ "par" ] -> par_report ~jobs:!jobs ppf
  | [ "durable" ] -> durable_report ppf
  | [ "certify" ] -> certify_report ppf
  | [ "obs" ] | [ "--obs" ] -> obs_report ppf
  | [ "serve" ] -> serve_report ~jobs:!jobs ppf
  | [ "chaos" ] -> chaos_report ppf
  | [ "crash" ] -> crash_report ppf
  | [ "tighten" ] -> tighten_report ppf
  | [ name ] -> begin
    match Experiments.by_name name with
    | Some _ ->
      with_pool (fun pool ->
          match Experiments.by_name ?pool name with
          | Some run -> run ppf
          | None -> assert false)
    | None ->
      Format.eprintf
        "unknown experiment %S (expected: %s, tables, bench, par, durable, \
         certify, obs, serve, chaos, crash, tighten)@."
        name
        (String.concat ", " Experiments.names);
      exit 2
  end
  | _ ->
    Format.eprintf
      "usage: main.exe \
       [EXPERIMENT|tables|bench|par|durable|certify|obs|serve|chaos|crash|tighten] \
       [--jobs N]@.";
    exit 2
