(* The benchmark's fixed vocabulary: workload names and every metric it
   reports, with unit and direction.  BENCHMARK.json at the repository
   root lists the same names; test_perfbench checks the two agree. *)

type better = Higher | Lower

type metric = { name : string; unit : string; better : better }

let workloads = [ "solve-large"; "sweep-small"; "tighten-mix"; "admit-mix"; "admit-isolated" ]

(* Reported on every run with tracing off, each with the share of the
   parent's median by which it may worsen. *)
let end_to_end =
  [
    ({ name = "ops_per_s"; unit = "1/s"; better = Higher }, 0.25);
    ({ name = "setup_s"; unit = "s"; better = Lower }, 0.25);
    ({ name = "peak_rss_mb"; unit = "MB"; better = Lower }, 0.2);
  ]

(* Printed in the per-workload table of every run but kept out of the
   result line.  The latency percentiles of a mixed op list jump between
   clusters of op costs as the machine's speed drifts (run-to-run
   spreads of 0.35 to 1.0 of the median); failed_share is 0 on a
   healthy build; sweeps return no mapping to count. *)
let reported_only =
  [
    { name = "latency_p50_ms"; unit = "ms"; better = Lower };
    { name = "latency_p90_ms"; unit = "ms"; better = Lower };
    { name = "failed_share"; unit = "share"; better = Lower };
    { name = "containers_total"; unit = "count"; better = Lower };
    { name = "objective_total"; unit = "objective"; better = Lower };
  ]

let per_layer =
  let m name unit better = { name; unit; better } in
  [
    m "taskgraph.parse_ms" "ms" Lower;
    m "core.build_ms" "ms" Lower;
    m "core.model_rows" "count" Lower;
    m "core.model_vars" "count" Lower;
    m "conic.solve_ms" "ms" Lower;
    m "conic.iterations" "count" Lower;
    m "conic.ms_per_iter" "ms" Lower;
    m "conic.kkt_numeric" "count" Lower;
    m "conic.kkt_fallback_share" "share" Lower;
    m "conic.presolve_runs" "count" Lower;
    m "core.sweep_candidates" "count" Lower;
    m "core.iterations_per_candidate" "count" Lower;
    m "conic.warm_accept_share" "share" Higher;
    m "parallel.tasks" "count" Lower;
    m "parallel.busy_share" "share" Higher;
    m "robust.attempts_per_solve" "count" Lower;
    m "core.finish_ms" "ms" Lower;
    m "core.verify_ms" "ms" Lower;
    m "exact.certify_ms" "ms" Lower;
    m "tdm_sim.crosscheck_ms" "ms" Lower;
    m "tighten.run_ms" "ms" Lower;
    m "tighten.probes" "count" Lower;
    m "tighten.ms_per_probe" "ms" Lower;
    m "tighten.feasible_share" "share" Higher;
    m "tighten.repaired" "count" Lower;
    m "serve.queue_wait_ms" "ms" Lower;
    m "serve.server_ms" "ms" Lower;
    m "serve.wire_ms" "ms" Lower;
    m "serve.cache_hit_share" "share" Higher;
    m "serve.hit_ms" "ms" Lower;
    m "serve.miss_ms" "ms" Lower;
    m "serve.shed" "count" Lower;
    m "serve.worker_spawns" "count" Lower;
    m "unaccounted_share" "share" Lower;
    m "obs.trace_overhead_pct" "%" Lower;
  ]

let valid_name s =
  s <> ""
  && String.for_all
       (function
         | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
         | _ -> false)
       s

let unit_of name =
  List.find_map
    (fun m -> if m.name = name then Some m.unit else None)
    (List.map fst end_to_end @ reported_only @ per_layer)
