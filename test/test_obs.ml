(* Observability layer tests (docs/observability.md).

   The deterministic trace harness: a fake clock makes spans and
   timestamps bit-identical, so whole JSONL traces can be golden-
   tested; metric cells are exercised from a real domain pool; the
   file sink must round-trip every event and tolerate a torn tail; and
   the load-bearing property — observation never changes solver
   results — is checked on 200 random instances. *)

module Config = Taskgraph.Config
module Mapping = Budgetbuf.Mapping
module Trace = Obs.Trace
module Sink = Obs.Sink
module Ctx = Obs.Ctx
module Json = Obs.Json

(* A deterministic clock: every reading is the previous one plus 1. *)
let with_fake_clock f =
  let t = ref 0.0 in
  Obs.Clock.set_clock_for_testing
    (Some
       (fun () ->
         let v = !t in
         t := v +. 1.0;
         v));
  Fun.protect ~finally:(fun () -> Obs.Clock.set_clock_for_testing None) f

(* ---- spans and the golden trace ---------------------------------- *)

(* Nested spans under the fake clock produce a bit-identical JSONL
   trace: sequence numbers, timestamps, span durations and float
   rendering are all pinned.  If this golden moves, the trace format
   changed and docs/observability.md must move with it. *)
let test_golden_trace () =
  with_fake_clock @@ fun () ->
  let sink = Sink.ring ~capacity:16 in
  let obs = Ctx.make ~sink () in
  Ctx.with_span (Some obs) "outer" (fun () ->
      Ctx.emit obs (Trace.Solve_start { rows = 20; cols = 9 });
      Ctx.with_span (Some obs) "inner" (fun () ->
          Ctx.emit obs
            (Trace.Socp_iter
               { iter = 0; pres = 0.5; dres = 1.0; gap = 16.0; step = 0.0 })));
  let golden =
    [
      {|{"seq":0,"t":0,"ev":"span_open","name":"outer"}|};
      {|{"seq":1,"t":2,"ev":"solve_start","rows":20,"cols":9}|};
      {|{"seq":2,"t":3,"ev":"span_open","name":"inner"}|};
      {|{"seq":3,"t":5,"ev":"socp_iter","iter":0,"pres":0.5,"dres":1,"gap":16,"step":0}|};
      {|{"seq":4,"t":7,"ev":"span_close","name":"inner","elapsed_s":2}|};
      {|{"seq":5,"t":9,"ev":"span_close","name":"outer","elapsed_s":7}|};
    ]
  in
  Alcotest.(check (list string))
    "bit-identical golden trace" golden
    (List.map Trace.to_json (Sink.events sink))

(* [with_span None] is exactly the wrapped call, and a raising body
   still closes its span (so phase totals cannot leak). *)
let test_span_edges () =
  Alcotest.(check int) "with_span None is transparent" 7
    (Ctx.with_span None "x" (fun () -> 7));
  with_fake_clock @@ fun () ->
  let sink = Sink.ring ~capacity:8 in
  let obs = Ctx.make ~sink () in
  (try Ctx.with_span (Some obs) "boom" (fun () -> failwith "boom")
   with Failure _ -> ());
  match Sink.events sink with
  | [ { Trace.event = Trace.Span_open { name = "boom" }; _ };
      { Trace.event = Trace.Span_close { name = "boom"; _ }; _ } ] ->
    ()
  | evs ->
    Alcotest.failf "expected open+close around a raise, got %d events"
      (List.length evs)

(* ---- metrics under a real domain pool --------------------------- *)

(* Events emitted from every pool lane must fold to exact totals. *)
let test_metrics_across_domains () =
  Parallel.Pool.with_pool ~domains:4 @@ fun pool ->
  let obs = Ctx.make () in
  let n = 100 in
  ignore
    (Parallel.Pool.map pool
       (fun i ->
         Ctx.emit obs
           (Trace.Solve_end
              { status = "optimal"; iterations = 3; time_s = float_of_int i });
         Ctx.emit obs (Trace.Candidate { index = i; verdict = "ok" }))
       (List.init n Fun.id));
  match Ctx.report obs with
  | solves :: candidates :: time :: _ ->
    Alcotest.(check string) "solves fold exactly" "solves: 100 (300 iterations)"
      solves;
    Alcotest.(check string) "keyed tallies fold exactly" "candidates: ok=100"
      candidates;
    Alcotest.(check string) "times sum exactly"
      "solve time: 4950.000 s total, 49.5000 s mean" time
  | lines -> Alcotest.failf "unexpected report: %s" (String.concat "; " lines)

(* ---- ring sink --------------------------------------------------- *)

let test_ring_eviction () =
  with_fake_clock @@ fun () ->
  let sink = Sink.ring ~capacity:3 in
  let obs = Ctx.make ~sink () in
  for i = 0 to 4 do
    Ctx.emit obs (Trace.Task_dispatch { index = i })
  done;
  let seqs = List.map (fun e -> e.Trace.seq) (Sink.events sink) in
  Alcotest.(check (list int)) "oldest evicted, newest kept" [ 2; 3; 4 ] seqs;
  Alcotest.check_raises "capacity 0 rejected"
    (Invalid_argument "Obs.Sink.ring: capacity must be >= 1") (fun () ->
      ignore (Sink.ring ~capacity:0))

(* ---- file sink: round trip, torn tail, header guard -------------- *)

let sample_events =
  [
    Trace.Solve_start { rows = 20; cols = 9 };
    Trace.Presolve { range_before = 1e6; range_after = 3.5 };
    Trace.Socp_iter
      {
        iter = 3;
        pres = 1.2345678901234567e-9;
        dres = Float.nan;
        gap = Float.infinity;
        step = Float.neg_infinity;
      };
    Trace.Solve_end { status = "optimal"; iterations = 11; time_s = 0.00123 };
    Trace.Rung_enter { attempt = 1; stage = "base" };
    Trace.Rung_exit
      { attempt = 1; stage = "base"; status = "stalled"; fault = Some "stall" };
    Trace.Rung_exit
      { attempt = 2; stage = "relaxed"; status = "optimal"; fault = None };
    Trace.Fault_injected { kind = "stall"; attempt = 1 };
    Trace.Certificate { verdict = "certified" };
    Trace.Restore { index = 0; hit = true };
    Trace.Restore { index = 1; hit = false };
    Trace.Task_dispatch { index = 7 };
    Trace.Task_join { index = 7; ok = false };
    Trace.Candidate { index = 2; verdict = "timed out" };
    Trace.Span_open { name = "weird \"name\"\twith\nescapes" };
    Trace.Span_close { name = "socp"; elapsed_s = 0.25 };
  ]

(* JSON equality that survives NaN: compare the renderings. *)
let check_event_list msg expected actual =
  let render evs =
    List.map (fun e -> Trace.to_json e) evs |> String.concat "\n"
  in
  Alcotest.(check string) msg (render expected) (render actual)

let test_file_round_trip () =
  with_fake_clock @@ fun () ->
  let path = Filename.temp_file "budgetbuf-test" ".trace" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let sink = Sink.file path in
  Alcotest.(check (option string)) "path exposed" (Some path) (Sink.path sink);
  let obs = Ctx.make ~sink () in
  List.iter (Ctx.emit obs) sample_events;
  Sink.close sink;
  Sink.close sink (* idempotent *);
  Ctx.emit obs (Trace.Span_open { name = "after close" })
  (* dropped, not a crash *);
  match Sink.read_file path with
  | Error msg -> Alcotest.fail msg
  | Ok events ->
    let stamped =
      List.mapi
        (fun i ev -> { Trace.seq = i; time = float_of_int i; event = ev })
        sample_events
    in
    check_event_list "every event round-trips bit-exactly" stamped events

let test_torn_tail_tolerated () =
  with_fake_clock @@ fun () ->
  let path = Filename.temp_file "budgetbuf-test" ".trace" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let sink = Sink.file path in
  let obs = Ctx.make ~sink () in
  Ctx.emit obs (Trace.Task_dispatch { index = 0 });
  Ctx.emit obs (Trace.Task_join { index = 0; ok = true });
  Sink.close sink;
  (* Tear the file: one corrupt line, then an unterminated fragment —
     everything before the damage must still decode. *)
  let oc = open_out_gen [ Open_append ] 0o644 path in
  output_string oc "deadbeef {\"seq\":99,\"t\":0,\"ev\":\"span_open\"\n";
  output_string oc "00000000 {\"truncated";
  close_out oc;
  (match Sink.read_file path with
  | Error msg -> Alcotest.fail msg
  | Ok events ->
    Alcotest.(check int) "prefix before the tear survives" 2
      (List.length events));
  (* A trace that is not a trace at all is refused outright. *)
  let bogus = Filename.temp_file "budgetbuf-test" ".trace" in
  Fun.protect ~finally:(fun () -> Sys.remove bogus) @@ fun () ->
  let oc = open_out bogus in
  output_string oc "not a trace\n";
  close_out oc;
  match Sink.read_file bogus with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage header accepted"

let test_unwritable_path_raises () =
  match Sink.file "/nonexistent-budgetbuf-dir/x.trace" with
  | exception Sys_error _ -> ()
  | _ -> Alcotest.fail "unwritable path accepted"

(* ---- JSONL codec property ---------------------------------------- *)

(* Any stamped event must decode back to an identical record (JSON
   rendering compared, so NaN fields cannot sabotage the equality). *)
let test_json_round_trip_qcheck () =
  let special_float =
    QCheck.Gen.oneof
      [
        QCheck.Gen.float;
        QCheck.Gen.oneofl
          [ Float.nan; Float.infinity; Float.neg_infinity; 0.0; -0.0; 1e-308 ];
      ]
  in
  let event_gen =
    QCheck.Gen.(
      let* f = special_float in
      let* i = int_range 0 1000 in
      let* s = string_size ~gen:printable (int_range 0 12) in
      oneofl
        [
          Trace.Solve_start { rows = i; cols = i + 1 };
          Trace.Solve_end { status = s; iterations = i; time_s = f };
          Trace.Socp_iter { iter = i; pres = f; dres = f; gap = f; step = f };
          Trace.Presolve { range_before = f; range_after = f };
          Trace.Rung_enter { attempt = i; stage = s };
          Trace.Rung_exit { attempt = i; stage = s; status = s; fault = None };
          Trace.Rung_exit
            { attempt = i; stage = s; status = s; fault = Some s };
          Trace.Fault_injected { kind = s; attempt = i };
          Trace.Certificate { verdict = s };
          Trace.Restore { index = i; hit = i mod 2 = 0 };
          Trace.Task_dispatch { index = i };
          Trace.Task_join { index = i; ok = i mod 2 = 1 };
          Trace.Candidate { index = i; verdict = s };
          Trace.Span_open { name = s };
          Trace.Span_close { name = s; elapsed_s = f };
          Trace.Kkt_factor { backend = s; phase = s; n = i; nnz = i + 2 };
          Trace.Warm_start { accepted = i mod 2 = 0; reason = s };
          Trace.Tighten_probe
            { buffer = s; capacity = i; feasible = i mod 2 = 0; layer = s };
        ])
  in
  QCheck.Test.make ~count:500 ~name:"trace JSONL round-trips every event"
    (QCheck.make
       QCheck.Gen.(
         let* seq = int_range 0 1_000_000 in
         let* time = special_float in
         let* event = event_gen in
         return { Trace.seq; time; event }))
    (fun t ->
      match Trace.of_json_line (Trace.to_json t) with
      | None -> false
      | Some t' -> String.equal (Trace.to_json t) (Trace.to_json t'))

(* Damaged lines decode to None, never to an exception. *)
let test_json_rejects_damage () =
  List.iter
    (fun line ->
      match Trace.of_json_line line with
      | None -> ()
      | Some _ -> Alcotest.failf "damaged line accepted: %s" line)
    [
      "";
      "{";
      "{}";
      "not json";
      {|{"seq":0,"t":0}|};
      {|{"seq":0,"t":0,"ev":"no_such_event"}|};
      {|{"seq":0,"t":0,"ev":"span_open"}|};
      {|{"seq":0.5,"t":0,"ev":"span_open","name":"x"}|};
      {|{"seq":0,"t":0,"ev":"span_open","name":"x"} trailing|};
      {|{"seq":0,"t":0,"ev":"restore","index":1,"hit":"yes"}|};
      {|{"seq":0,"t":0,"ev":"tighten_probe","buffer":"b","capacity":1,|}
      ^ {|"feasible":false,"layer":1}|};
    ];
  (* a probe traced before the cycle bound carries no layer: it was a
     simulation *)
  match
    Trace.of_json_line
      ({|{"seq":0,"t":0,"ev":"tighten_probe","buffer":"b","capacity":1,|}
      ^ {|"feasible":true}|})
  with
  | Some { Trace.event = Trace.Tighten_probe { layer; _ }; _ } ->
    Alcotest.(check string) "layer of an older probe" "sim" layer
  | _ -> Alcotest.fail "older tighten_probe line refused"

(* ---- the flat-JSON codec ----------------------------------------- *)

(* Obs.Json carries every trace line and every serve frame.  Random
   flat objects (distinct keys; arbitrary byte strings, finite floats,
   ints, booleans) survive render then parse, an [Int] coming back as
   the [Number] it spells.  Damage is refused without an exception:
   every strict prefix of a line is an [Error], and a line with one
   byte overwritten is either refused or parses to an object that
   renders and parses back to itself. *)
let test_json_codec_qcheck () =
  let value_gen =
    QCheck.Gen.(
      oneof
        [
          map (fun s -> Json.String s) (string_size ~gen:char (int_range 0 12));
          map
            (fun f -> Json.Number (if Float.is_finite f then f else 0.5))
            float;
          map (fun i -> Json.Int i) int;
          map (fun b -> Json.Bool b) bool;
        ])
  in
  let obj_gen =
    QCheck.Gen.(
      map
        (List.fold_left
           (fun acc (k, v) -> if List.mem_assoc k acc then acc else acc @ [ (k, v) ])
           [])
        (list_size (int_range 0 6)
           (pair (string_size ~gen:printable (int_range 0 6)) value_gen)))
  in
  let as_parsed = function Json.Int i -> Json.Number (float_of_int i) | v -> v in
  QCheck.Test.make ~count:500 ~name:"flat JSON round trip, damage refused"
    (QCheck.make QCheck.Gen.(triple obj_gen nat char))
    (fun (obj, pos, c) ->
      let line = Json.render obj in
      let len = String.length line in
      Json.parse line = Ok (List.map (fun (k, v) -> (k, as_parsed v)) obj)
      && List.for_all
           (fun n -> Result.is_error (Json.parse (String.sub line 0 n)))
           (List.init len Fun.id)
      &&
      let b = Bytes.of_string line in
      Bytes.set b (pos mod len) c;
      match Json.parse (Bytes.to_string b) with
      | Error _ -> true
      | Ok o -> Json.parse (Json.render o) = Ok o)

(* ---- metrics aggregation and the report table -------------------- *)

let test_report_lines () =
  let obs = Ctx.make () in
  Ctx.emit obs (Trace.Solve_end { status = "optimal"; iterations = 11; time_s = 0.5 });
  Ctx.emit obs (Trace.Solve_end { status = "optimal"; iterations = 9; time_s = 0.25 });
  Ctx.emit obs (Trace.Rung_enter { attempt = 1; stage = "base" });
  Ctx.emit obs (Trace.Rung_enter { attempt = 2; stage = "relaxed" });
  Ctx.emit obs (Trace.Rung_enter { attempt = 1; stage = "base" });
  Ctx.emit obs (Trace.Fault_injected { kind = "stall"; attempt = 1 });
  Ctx.emit obs (Trace.Certificate { verdict = "certified" });
  Ctx.emit obs (Trace.Candidate { index = 0; verdict = "ok" });
  Ctx.emit obs (Trace.Candidate { index = 1; verdict = "infeasible" });
  Ctx.emit obs (Trace.Restore { index = 0; hit = true });
  Ctx.emit obs (Trace.Restore { index = 1; hit = false });
  Ctx.emit obs (Trace.Task_dispatch { index = 0 });
  Ctx.emit obs (Trace.Task_join { index = 0; ok = true });
  let lines =
    List.filter
      (fun l ->
        not
          (String.length l >= 10
          && (String.sub l 0 10 = "solve time" || String.sub l 0 6 = "phase ")))
      (Ctx.report obs)
  in
  Alcotest.(check (list string))
    "deterministic metrics table"
    [
      "solves: 2 (20 iterations)";
      "rungs: base=2 relaxed=1";
      "faults: stall=1";
      "certificates: certified=1";
      "candidates: infeasible=1 ok=1";
      "restores: 1 hit, 1 missed";
      "pool: 1 dispatched, 1 joined";
    ]
    lines

(* A null-sink context folds metrics without stamping events: the
   sequence counter must stay untouched. *)
let test_null_sink_skips_stamping () =
  with_fake_clock @@ fun () ->
  let obs = Ctx.make () in
  Ctx.emit obs (Trace.Task_dispatch { index = 0 });
  let sink = Sink.ring ~capacity:4 in
  let obs2 = Ctx.make ~sink () in
  Ctx.emit obs2 (Trace.Task_dispatch { index = 0 });
  match Sink.events sink with
  | [ { Trace.seq = 0; time = 0.0; _ } ] -> ()
  | _ -> Alcotest.fail "ring context must stamp from seq 0 / clock 0"

(* ---- trace transparency ------------------------------------------ *)

(* The load-bearing property: observing a solve (null sink, so metrics
   only) must not change its result in any way — same verdict, same
   objective bits, same rounded mapping, same iteration count.  200
   random instances, the same corpus shape as test_exact.ml. *)
let test_trace_transparency_qcheck () =
  QCheck.Test.make ~count:200 ~name:"null-sink observation changes nothing"
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
      let rng = Workloads.Rng.create (Int64.of_int seed) in
      let cfg =
        if seed mod 2 = 0 then
          Workloads.Gen.random_chain rng ~n:(2 + (seed mod 4)) ()
        else
          Workloads.Gen.multi_job rng
            ~jobs:(1 + (seed mod 3))
            ~tasks_per_job:(2 + (seed mod 2))
            ~procs:(1 + (seed mod 3))
            ()
      in
      let plain = Mapping.solve cfg in
      let observed = Mapping.solve ~obs:(Ctx.make ()) cfg in
      match (plain, observed) with
      | Error a, Error b ->
        String.equal
          (Format.asprintf "%a" Mapping.pp_error a)
          (Format.asprintf "%a" Mapping.pp_error b)
      | Ok a, Ok b ->
        Float.equal a.Mapping.objective b.Mapping.objective
        && Float.equal a.Mapping.rounded_objective b.Mapping.rounded_objective
        && a.Mapping.stats.Mapping.iterations
           = b.Mapping.stats.Mapping.iterations
        && a.Mapping.stats.Mapping.attempts = b.Mapping.stats.Mapping.attempts
        && List.for_all
             (fun w ->
               Float.equal
                 (a.Mapping.mapped.Config.budget w)
                 (b.Mapping.mapped.Config.budget w))
             (Config.all_tasks cfg)
        && List.for_all
             (fun b' ->
               a.Mapping.mapped.Config.capacity b'
               = b.Mapping.mapped.Config.capacity b')
             (Config.all_buffers cfg)
      | Ok _, Error _ | Error _, Ok _ -> false)

(* And with a real trace attached the result still cannot move; the
   trace itself must contain the solve. *)
let test_traced_solve_matches_plain () =
  let cfg = Workloads.Gen.paper_t1 () in
  let plain = Mapping.solve cfg in
  let sink = Sink.ring ~capacity:4096 in
  let traced = Mapping.solve ~obs:(Ctx.make ~sink ()) cfg in
  (match (plain, traced) with
  | Ok a, Ok b ->
    Alcotest.(check (float 0.0))
      "objective is bit-identical under tracing" a.Mapping.objective
      b.Mapping.objective
  | _ -> Alcotest.fail "paper T1 must solve");
  let names =
    List.sort_uniq String.compare
      (List.map (fun e -> Trace.event_name e.Trace.event) (Sink.events sink))
  in
  List.iter
    (fun expected ->
      Alcotest.(check bool)
        (expected ^ " present in solve trace")
        true
        (List.mem expected names))
    [
      "span_open"; "span_close"; "rung_enter"; "rung_exit"; "solve_start";
      "socp_iter"; "solve_end"; "certificate";
    ]

(* Each exact check of the rounded mapping runs in a [certify] span
   nested in [finish], so a trace shows what certification costs. *)
let test_certify_span_nests_in_finish () =
  let sink = Sink.ring ~capacity:4096 in
  (match Mapping.solve ~obs:(Ctx.make ~sink ()) (Workloads.Gen.paper_t1 ()) with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "paper T1 must solve");
  let spans =
    List.filter_map
      (fun e ->
        match e.Trace.event with
        | Trace.Span_open { name } -> Some ("open " ^ name)
        | Trace.Span_close { name; _ } -> Some ("close " ^ name)
        | _ -> None)
      (Sink.events sink)
  in
  Alcotest.(check (list string))
    "span sequence"
    [
      "open socp"; "close socp"; "open finish"; "open certify";
      "close certify"; "close finish";
    ]
    spans

(* The sparse KKT path announces its factorisation schedule: exactly
   one symbolic analysis per interior-point attempt, then one numeric
   refactorisation per iteration — the cost model docs/solver.md
   sells. *)
let test_sparse_solve_trace_shape () =
  let cfg = Workloads.Gen.paper_t1 () in
  let sink = Sink.ring ~capacity:4096 in
  (match Mapping.solve ~obs:(Ctx.make ~sink ()) cfg with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "paper T1 must solve");
  let events = Sink.events sink in
  let kkt p =
    List.filter
      (fun e ->
        match e.Trace.event with
        | Trace.Kkt_factor { phase; _ } -> String.equal phase p
        | _ -> false)
      events
  in
  let iters =
    List.length
      (List.filter
         (fun e ->
           match e.Trace.event with Trace.Socp_iter _ -> true | _ -> false)
         events)
  in
  Alcotest.(check int) "one symbolic analysis" 1 (List.length (kkt "symbolic"));
  (* The converging iteration exits after its residual check, before
     assembling a new KKT system: one numeric refactorisation for every
     iteration but the last. *)
  Alcotest.(check int)
    "one numeric refactorisation per stepping iteration" (iters - 1)
    (List.length (kkt "numeric"));
  Alcotest.(check int) "no dense fallbacks" 0 (List.length (kkt "fallback"));
  List.iter
    (fun e ->
      match e.Trace.event with
      | Trace.Kkt_factor { backend; n; nnz; _ } ->
        Alcotest.(check string) "backend" "sparse" backend;
        Alcotest.(check bool) "dimension recorded" true (n > 0);
        Alcotest.(check bool) "pattern size recorded" true (nnz > 0)
      | _ -> ())
    events

(* Warm starts announce acceptance or rejection with a reason; the
   codec line for each is pinned here (seq/t come from the fake
   clock). *)
let test_warm_start_event_golden () =
  with_fake_clock @@ fun () ->
  let sink = Sink.ring ~capacity:8 in
  let obs = Ctx.make ~sink () in
  Ctx.emit obs (Trace.Warm_start { accepted = true; reason = "" });
  Ctx.emit obs
    (Trace.Warm_start { accepted = false; reason = "dimension mismatch" });
  Ctx.emit obs
    (Trace.Kkt_factor { backend = "sparse"; phase = "symbolic"; n = 9; nnz = 25 });
  let golden =
    [
      {|{"seq":0,"t":0,"ev":"warm_start","accepted":true,"reason":""}|};
      {|{"seq":1,"t":1,"ev":"warm_start","accepted":false,"reason":"dimension mismatch"}|};
      {|{"seq":2,"t":2,"ev":"kkt_factor","backend":"sparse","phase":"symbolic","n":9,"nnz":25}|};
    ]
  in
  Alcotest.(check (list string))
    "bit-identical event lines" golden
    (List.map Trace.to_json (Sink.events sink))

let () =
  let qsuite =
    List.map QCheck_alcotest.to_alcotest
      [ test_json_round_trip_qcheck (); test_trace_transparency_qcheck () ]
  in
  Alcotest.run "obs"
    [
      ( "trace",
        [
          Alcotest.test_case "golden nested-span trace" `Quick
            test_golden_trace;
          Alcotest.test_case "span edge cases" `Quick test_span_edges;
          Alcotest.test_case "codec rejects damage" `Quick
            test_json_rejects_damage;
          Alcotest.test_case "certify span inside finish" `Quick
            test_certify_span_nests_in_finish;
          QCheck_alcotest.to_alcotest (test_json_codec_qcheck ());
        ] );
      ( "metrics",
        [
          Alcotest.test_case "cells fold across pool domains" `Quick
            test_metrics_across_domains;
          Alcotest.test_case "report table" `Quick test_report_lines;
          Alcotest.test_case "null sink skips stamping" `Quick
            test_null_sink_skips_stamping;
        ] );
      ( "sink",
        [
          Alcotest.test_case "ring eviction" `Quick test_ring_eviction;
          Alcotest.test_case "file round trip" `Quick test_file_round_trip;
          Alcotest.test_case "torn tail tolerated" `Quick
            test_torn_tail_tolerated;
          Alcotest.test_case "unwritable path raises" `Quick
            test_unwritable_path_raises;
        ] );
      ( "transparency",
        Alcotest.test_case "traced solve matches plain" `Quick
          test_traced_solve_matches_plain
        :: qsuite );
      ( "sparse kkt",
        [
          Alcotest.test_case "solve trace shape" `Quick
            test_sparse_solve_trace_shape;
          Alcotest.test_case "event golden lines" `Quick
            test_warm_start_event_golden;
        ] );
    ]
