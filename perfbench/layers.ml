(* The traced run: replay a workload's ops once untraced and once with
   the program's own --trace, time the public calls of each layer from
   the benchmark on the same inputs, and fold everything into one
   per-layer table with an [unaccounted] row.

   Spans come from two places.  The program's trace gives the [socp]
   and [finish] spans and the solver, sweep, pool, tighten and serve
   events.  The benchmark times parse, build, verify, certify, the
   simulator cross-check and Tighten.run itself, in this process, on
   the op's input and mapping.  Both kinds are kept in memory and
   written to spans.jsonl when the run ends. *)

module T = Obs.Trace

type span = { op : string; layer : string; source : string; start : float; stop : float }

(* Per-workload accumulator: counters and per-layer samples (ms). *)
type acc = {
  counts : (string, float) Hashtbl.t;
  samples : (string, float list) Hashtbl.t;
  mutable spans : span list;
}

let create () = { counts = Hashtbl.create 32; samples = Hashtbl.create 32; spans = [] }

let count acc k = Option.value ~default:0.0 (Hashtbl.find_opt acc.counts k)

let add acc k v = Hashtbl.replace acc.counts k (count acc k +. v)

let samples acc k = Option.value ~default:[] (Hashtbl.find_opt acc.samples k)

let sample acc k ms = Hashtbl.replace acc.samples k (ms :: samples acc k)

let total acc k = Stats.sum (samples acc k)

let span acc ~op ~layer ~source start stop =
  acc.spans <- { op; layer; source; start; stop } :: acc.spans;
  sample acc layer (1000.0 *. (stop -. start))

(* Times [f] as a benchmark span of [layer]. *)
let timed acc ~op layer f =
  let t0 = Proc.now () in
  let r = f () in
  span acc ~op ~layer ~source:"bench" t0 (Proc.now ());
  r

(* Total length of the union of intervals: spans from different pool
   domains overlap, and coverage must not count wall time twice. *)
let union_s intervals =
  let sorted = List.sort compare intervals in
  let covered, last =
    List.fold_left
      (fun (acc, cur) (a, b) ->
        match cur with
        | Some (ca, cb) when a <= cb -> (acc, Some (ca, Float.max cb b))
        | Some (ca, cb) -> (acc +. (cb -. ca), Some (a, b))
        | None -> (acc, Some (a, b)))
      (0.0, None) sorted
  in
  match last with Some (a, b) -> covered +. (b -. a) | None -> covered

let layer_of_span = function "socp" -> Some "conic.solve" | "finish" -> Some "core.finish" | _ -> None

(* Folds one trace into [acc]; returns the program's span intervals and
   the serve request records (op, id) -> (queue_s, total_s). *)
let fold_trace acc ~op events =
  let open_tasks = Hashtbl.create 8 and requests = Hashtbl.create 64 in
  let intervals =
    List.fold_left
      (fun intervals (t : T.t) ->
        match t.T.event with
        | T.Span_close { name; elapsed_s } -> (
          match layer_of_span name with
          | Some layer ->
            span acc ~op ~layer ~source:"trace" (t.T.time -. elapsed_s) t.T.time;
            if name = "socp" then add acc "socp_spans" 1.0;
            (t.T.time -. elapsed_s, t.T.time) :: intervals
          | None -> intervals)
        | ev ->
          (match ev with
          | T.Solve_start { rows; cols } ->
            add acc "core.model_rows" (float_of_int rows);
            add acc "core.model_vars" (float_of_int cols)
          | T.Solve_end { iterations; _ } -> add acc "conic.iterations" (float_of_int iterations)
          | T.Kkt_factor { phase = "numeric"; _ } -> add acc "conic.kkt_numeric" 1.0
          | T.Kkt_factor { phase = "fallback"; _ } -> add acc "kkt_fallbacks" 1.0
          | T.Presolve _ -> add acc "conic.presolve_runs" 1.0
          | T.Rung_enter _ -> add acc "rungs" 1.0
          | T.Warm_start { accepted; _ } ->
            add acc "warm_offers" 1.0;
            if accepted then add acc "warm_accepted" 1.0
          | T.Candidate _ -> add acc "core.sweep_candidates" 1.0
          | T.Task_dispatch { index } ->
            add acc "parallel.tasks" 1.0;
            Hashtbl.add open_tasks index t.T.time
          | T.Task_join { index; _ } -> (
            match Hashtbl.find_opt open_tasks index with
            | Some t0 ->
              Hashtbl.remove open_tasks index;
              add acc "task_busy_s" (t.T.time -. t0)
            | None -> ())
          | T.Tighten_probe { feasible; _ } ->
            add acc "tighten.probes" 1.0;
            if feasible then add acc "probes_feasible" 1.0
          | T.Request_done { op; id; queue_s; total_s; _ } ->
            Hashtbl.replace requests (op, id) (queue_s, total_s)
          | T.Cache_hit _ -> add acc "cache_hits" 1.0
          | T.Cache_miss _ -> add acc "cache_misses" 1.0
          | T.Shed _ -> add acc "serve.shed" 1.0
          | T.Worker_spawn _ -> add acc "serve.worker_spawns" 1.0
          | _ -> ());
          intervals)
      [] events
  in
  (intervals, requests)

let read_trace path =
  match Obs.Sink.read_file path with
  | Ok events -> events
  | Error e -> failwith (Printf.sprintf "trace %s: %s" path e)

(* The checks every certified mapping goes through inside [finish],
   timed from the benchmark on the op's own mapping. *)
let time_finish_children acc ~op cfg mapped =
  ignore (timed acc ~op "core.verify" (fun () -> Budgetbuf.Dataflow_model.verify cfg mapped));
  ignore (timed acc ~op "exact.certify" (fun () -> Budgetbuf.Certify.check cfg mapped));
  ignore
    (timed acc ~op "tdm_sim.crosscheck" (fun () ->
         Tdm_sim.Sim.run cfg mapped ~iterations:200 ()))

let ratio a b = if b > 0.0 then a /. b else 0.0

let overhead_pct ~plain ~traced = 100.0 *. ratio (traced -. plain) plain

(* ---- one-shot workloads ------------------------------------------- *)

(* Process start-up and exit, which no other layer covers: the median of a
   few runs of [budgetbuf --version]. *)
let startup_s (ctx : Oneshot.ctx) =
  let out = Filename.concat ctx.dir "version.out" in
  Stats.median_exn
    (List.init 5 (fun _ -> (Proc.run ~exe:ctx.exe ~env:ctx.env ~out [ "--version" ]).wall_s))

let one_shot (ctx : Oneshot.ctx) prepared =
  let acc = create () in
  let plain = List.map (Oneshot.run_op ctx) prepared in
  let traced =
    List.map (fun p -> Oneshot.run_op ctx ~trace:(p.Oneshot.out_path ^ ".trace") p) prepared
  in
  let startup = startup_s ctx in
  let op_total = ref 0.0 and covered = ref 0.0 in
  List.iter
    (fun (r : Oneshot.run) ->
      let p = r.p and op = r.p.label in
      let started = r.exit.started in
      span acc ~op ~layer:"op" ~source:"bench" started (started +. r.exit.wall_s);
      op_total := !op_total +. r.exit.wall_s;
      let intervals, _ = fold_trace acc ~op (read_trace (p.out_path ^ ".trace")) in
      let bench_layer layer f =
        let t0 = Proc.now () in
        let v = timed acc ~op layer f in
        covered := !covered +. (Proc.now () -. t0);
        v
      in
      sample acc "process.startup" (1000.0 *. startup);
      covered := !covered +. startup +. union_s intervals;
      let cfg = bench_layer "taskgraph.parse" (fun () -> Taskgraph.Parse.config_of_string p.op.inst.text) in
      if p.op.kind = Solve || p.op.kind = Tighten then
        ignore (bench_layer "core.build" (fun () -> Budgetbuf.Socp_builder.build cfg));
      (* The op's analytic mapping: its own output for solve, a
         separate untimed solve for the others. *)
      let map_path =
        if p.op.kind = Solve then p.map_path
        else begin
          let path = p.out_path ^ ".analytic.map" in
          ignore
            (Proc.run ~exe:ctx.exe ~env:ctx.env ~out:(p.out_path ^ ".analytic")
               [ "solve"; p.cfg_path; "-o"; path ]);
          path
        end
      in
      (match Taskgraph.Mapped_io.parse_file cfg map_path with
      | mapped ->
        time_finish_children acc ~op cfg mapped;
        if p.op.kind = Tighten then begin
          ignore (bench_layer "tighten.run" (fun () -> Tighten.run cfg mapped));
          if Check.find_line ~prefix:"repaired:" r.out <> None then add acc "tighten.repaired" 1.0
        end
      | exception (Sys_error _ | Taskgraph.Mapped_io.Parse_error _) -> add acc "missing_mappings" 1.0))
    traced;
  let plain_s = Stats.sum (List.map (fun (r : Oneshot.run) -> r.exit.wall_s) plain) in
  add acc "unaccounted_share" (Float.max 0.0 (ratio (!op_total -. !covered) !op_total));
  add acc "obs.trace_overhead_pct" (overhead_pct ~plain:plain_s ~traced:!op_total);
  add acc "op_total_ms" (1000.0 *. !op_total);
  (acc, [ plain; traced ])

(* ---- serve workloads ---------------------------------------------- *)

(* Requests replayed per pass: enough for a p90 of the round trips. *)
let admit_ops = 1000

let admit (ctx : Oneshot.ctx) ~jobs ~isolate ~seed =
  let acc = create () in
  let pass ?trace () =
    match Admit.setup ctx ~isolate ~seed ~seconds:0.0 ?trace () with
    | Error e -> failwith e
    | Ok (stream, pid) ->
      let t0 = Proc.now () in
      let replies = Admit.drive (Admit.socket ctx) stream ~min_ops:admit_ops ~until:0.0 in
      let elapsed = Proc.now () -. t0 in
      ignore (Admit.stop ctx pid);
      (stream, replies, elapsed)
  in
  let _, plain, plain_s = pass () in
  let trace = Filename.concat ctx.dir "serve.trace" in
  let stream, replies, traced_s = pass ~trace () in
  let _, requests = fold_trace acc ~op:"serve" (read_trace trace) in
  let op_total = ref 0.0 and covered = ref 0.0 and admits = ref 0 and hits = ref 0 in
  let config_of = Hashtbl.create 64 and mapping_of = Hashtbl.create 64 in
  List.iter
    (fun (r : Admit.reply) ->
      let id = Printf.sprintf "j%d" r.index in
      op_total := !op_total +. r.latency_s;
      covered := !covered +. r.admit_s +. r.release_s;
      let server op = Hashtbl.find_opt requests (op, id) in
      (match (server "admit", server "release") with
      | Some (qa, ta), Some (qr, tr) ->
        sample acc "serve.queue_wait" (1000.0 *. (qa +. qr));
        sample acc "serve.server" (1000.0 *. (ta +. tr));
        sample acc "serve.wire" (1000.0 *. (r.admit_s +. r.release_s -. ta -. tr))
      | _ -> add acc "unmatched_requests" 1.0);
      match r.result with
      | Ok a ->
        incr admits;
        if a.hit then incr hits;
        sample acc (if a.hit then "serve.hit" else "serve.miss") (1000.0 *. r.admit_s);
        let inst = stream.(r.index).Inputs.instance in
        Hashtbl.replace config_of inst stream.(r.index).config;
        Hashtbl.replace mapping_of inst a.mapping
      | Error _ -> ())
    replies;
  (* The public calls a miss runs, timed on each distinct instance. *)
  Hashtbl.iter
    (fun inst text ->
      let op = Printf.sprintf "instance%d" inst in
      let cfg = timed acc ~op "taskgraph.parse" (fun () -> Taskgraph.Parse.config_of_string text) in
      ignore (timed acc ~op "core.build" (fun () -> Budgetbuf.Socp_builder.build cfg));
      match Taskgraph.Mapped_io.parse cfg (Hashtbl.find mapping_of inst) with
      | mapped -> time_finish_children acc ~op cfg mapped
      | exception Taskgraph.Mapped_io.Parse_error _ -> add acc "missing_mappings" 1.0)
    config_of;
  (* The server's own time minus queueing and the solve spans it
     traced: parsing, cache, journal, admission and, isolated, the
     worker round trip. *)
  add acc "serve.handler"
    (total acc "serve.server" -. total acc "serve.queue_wait" -. total acc "conic.solve"
   -. total acc "core.finish");
  add acc "serve.cache_hit_share" (ratio (float_of_int !hits) (float_of_int !admits));
  add acc "parallel.busy_share" (ratio (count acc "task_busy_s") (float_of_int jobs *. traced_s));
  add acc "unaccounted_share" (Float.max 0.0 (ratio (!op_total -. !covered) !op_total));
  add acc "obs.trace_overhead_pct" (overhead_pct ~plain:plain_s ~traced:traced_s);
  add acc "op_total_ms" (1000.0 *. !op_total);
  (acc, stream, plain @ replies)

(* ---- reporting ---------------------------------------------------- *)

let p50 acc k = Option.value ~default:0.0 (Stats.median (samples acc k))

(* The per-layer metrics of BENCHMARK.json, 0 where the workload does
   not reach the layer. *)
let metrics acc =
  let ms k = total acc k in
  let iterations = count acc "conic.iterations" in
  let value = function
    | "taskgraph.parse_ms" -> ms "taskgraph.parse"
    | "core.build_ms" -> ms "core.build"
    | "conic.solve_ms" -> ms "conic.solve"
    | "conic.ms_per_iter" -> ratio (ms "conic.solve") iterations
    | "conic.kkt_fallback_share" -> ratio (count acc "kkt_fallbacks") (count acc "conic.kkt_numeric")
    | "core.iterations_per_candidate" -> ratio iterations (count acc "core.sweep_candidates")
    | "conic.warm_accept_share" -> ratio (count acc "warm_accepted") (count acc "warm_offers")
    | "robust.attempts_per_solve" -> ratio (count acc "rungs") (count acc "socp_spans")
    | "core.finish_ms" -> ms "core.finish"
    | "core.verify_ms" -> ms "core.verify"
    | "exact.certify_ms" -> ms "exact.certify"
    | "tdm_sim.crosscheck_ms" -> ms "tdm_sim.crosscheck"
    | "tighten.run_ms" -> ms "tighten.run"
    | "tighten.ms_per_probe" -> ratio (ms "tighten.run") (count acc "tighten.probes")
    | "tighten.feasible_share" -> ratio (count acc "probes_feasible") (count acc "tighten.probes")
    | "serve.queue_wait_ms" -> ms "serve.queue_wait"
    | "serve.server_ms" -> ms "serve.server"
    | "serve.wire_ms" -> ms "serve.wire"
    | "serve.hit_ms" -> p50 acc "serve.hit"
    | "serve.miss_ms" -> p50 acc "serve.miss"
    | k -> count acc k
  in
  List.map (fun (m : Spec.metric) -> (m.name, value m.name)) Spec.per_layer

(* Rows of the table: layers that cover op time, then the checks nested
   inside [finish], then what nothing covers. *)
let covering =
  [
    ("process.startup", "spawn and exit (budgetbuf --version)");
    ("taskgraph.parse", "Parse.config_of_string");
    ("core.build", "Socp_builder.build");
    ("conic.solve", "socp span: lowering, presolve, IPM, KKT");
    ("core.finish", "finish span: round, verify, certify, sim");
    ("tighten.run", "Tighten.run");
    ("serve.queue_wait", "Request_done.queue_s");
    ("serve.handler", "server time outside queue and spans");
    ("serve.wire", "client round trip minus Request_done.total_s");
  ]

let nested =
  [
    ("core.verify", "in finish: Dataflow_model.verify");
    ("exact.certify", "in finish: Certify.check");
    ("tdm_sim.crosscheck", "in finish: Sim.run ~iterations:200");
    ("serve.server", "Request_done.total_s");
    ("serve.hit", "admit round trip, cache hit");
    ("serve.miss", "admit round trip, cache miss");
  ]

let print_table ~workload acc =
  let op_ms = count acc "op_total_ms" in
  Printf.printf "== %s per layer: %.1f ms of traced op time\n" workload op_ms;
  Printf.printf "  %-20s %6s %12s %10s %10s %7s  %s\n" "layer" "calls" "total_ms" "p50_ms"
    "p90_ms" "share" "what";
  let row (k, what) =
    match samples acc k with
    | [] when Hashtbl.mem acc.counts k ->
      let v = count acc k in
      Printf.printf "  %-20s %6s %12.3f %10s %10s %6.1f%%  %s\n" k "" v "" "" (100.0 *. ratio v op_ms)
        what
    | [] -> ()
    | xs ->
      let pct = function None -> "-" | Some v -> Printf.sprintf "%.3f" v in
      Printf.printf "  %-20s %6d %12.3f %10s %10s %6.1f%%  %s\n" k (List.length xs) (Stats.sum xs)
        (pct (Stats.median xs)) (pct (Stats.p90 xs))
        (100.0 *. ratio (Stats.sum xs) op_ms)
        what
  in
  List.iter row covering;
  let unaccounted = count acc "unaccounted_share" in
  Printf.printf "  %-20s %6s %12.3f %10s %10s %6.1f%%  %s\n" "unaccounted" "" (unaccounted *. op_ms)
    "" "" (100.0 *. unaccounted) "op time no span above covers";
  List.iter row nested;
  Printf.printf "  shares are of traced op time; layers busy on several pool domains at once can \
                 sum past 100%%, the unaccounted row counts each instant once\n";
  Printf.printf "  tracing overhead: %.2f%% of untraced op time\n" (count acc "obs.trace_overhead_pct");
  if unaccounted > 0.10 then
    Printf.printf "  FLAG: layer spans cover %.1f%% of op time, below 90%%\n"
      (100.0 *. (1.0 -. unaccounted));
  List.iter
    (fun (k, v) -> Printf.printf "  %-32s %14.4f %s\n" k v (Outcome.unit_of k))
    (metrics acc)

let write_spans acc path =
  Out_channel.with_open_bin path (fun oc ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"op\":%S,\"layer\":%S,\"source\":%S,\"start\":%.6f,\"stop\":%.6f}\n" s.op s.layer
            s.source s.start s.stop)
        (List.rev acc.spans))
