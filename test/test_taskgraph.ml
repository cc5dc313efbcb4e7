(* Tests for the configuration model and its textual format. *)

module Config = Taskgraph.Config
module Parse = Taskgraph.Parse
module Mapped_io = Taskgraph.Mapped_io

let check_float eps = Alcotest.(check (float eps))

let sample () =
  let cfg = Config.create ~granularity:2.0 () in
  let p1 = Config.add_processor cfg ~name:"p1" ~replenishment:40.0 ~overhead:1.5 () in
  let p2 = Config.add_processor cfg ~name:"p2" ~replenishment:50.0 () in
  let m1 = Config.add_memory cfg ~name:"m1" ~capacity:64 in
  let g = Config.add_graph cfg ~name:"job" ~period:10.0 () in
  let wa = Config.add_task cfg g ~name:"wa" ~proc:p1 ~wcet:1.0 ~weight:2.0 () in
  let wb = Config.add_task cfg g ~name:"wb" ~proc:p2 ~wcet:1.5 () in
  let b =
    Config.add_buffer cfg g ~name:"bab" ~src:wa ~dst:wb ~memory:m1
      ~container_size:4 ~initial_tokens:1 ~weight:0.5 ~max_capacity:8 ()
  in
  (cfg, p1, p2, m1, g, wa, wb, b)

let test_accessors () =
  let cfg, p1, p2, m1, g, wa, wb, b = sample () in
  check_float 0.0 "granularity" 2.0 (Config.granularity cfg);
  Alcotest.(check string) "proc name" "p1" (Config.proc_name cfg p1);
  check_float 0.0 "replenishment" 40.0 (Config.replenishment cfg p1);
  check_float 0.0 "overhead" 1.5 (Config.overhead cfg p1);
  check_float 0.0 "default overhead" 0.0 (Config.overhead cfg p2);
  Alcotest.(check int) "memory" 64 (Config.memory_capacity cfg m1);
  check_float 0.0 "period" 10.0 (Config.period cfg g);
  check_float 0.0 "wcet" 1.5 (Config.wcet cfg wb);
  check_float 0.0 "task weight" 2.0 (Config.task_weight cfg wa);
  check_float 0.0 "default weight" 1.0 (Config.task_weight cfg wb);
  Alcotest.(check bool) "src" true (Config.buffer_src cfg b = wa);
  Alcotest.(check bool) "dst" true (Config.buffer_dst cfg b = wb);
  Alcotest.(check int) "container" 4 (Config.container_size cfg b);
  Alcotest.(check int) "iota" 1 (Config.initial_tokens cfg b);
  Alcotest.(check (option int)) "cap" (Some 8) (Config.max_capacity cfg b)

let test_collections () =
  let cfg, p1, p2, _, g, wa, wb, b = sample () in
  Alcotest.(check int) "procs" 2 (List.length (Config.processors cfg));
  Alcotest.(check int) "tasks" 2 (List.length (Config.tasks cfg g));
  Alcotest.(check int) "buffers" 1 (List.length (Config.buffers cfg g));
  Alcotest.(check bool) "tasks_on p1" true (Config.tasks_on cfg p1 = [ wa ]);
  Alcotest.(check bool) "tasks_on p2" true (Config.tasks_on cfg p2 = [ wb ]);
  Alcotest.(check bool) "all_buffers" true (Config.all_buffers cfg = [ b ])

let test_lookup () =
  let cfg, p1, _, _, _, wa, _, b = sample () in
  Alcotest.(check bool) "find_proc" true (Config.find_proc cfg "p1" = p1);
  Alcotest.(check bool) "find_task" true (Config.find_task cfg "wa" = wa);
  Alcotest.(check bool) "find_buffer" true (Config.find_buffer cfg "bab" = b);
  Alcotest.check_raises "absent" Not_found (fun () ->
      ignore (Config.find_task cfg "nope"))

let test_duplicate_names_rejected () =
  let cfg, _, _, _, g, _, _, _ = sample () in
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Config: duplicate name \"wa\"") (fun () ->
      ignore
        (Config.add_task cfg g ~name:"wa"
           ~proc:(Config.find_proc cfg "p1")
           ~wcet:1.0 ()))

let test_cross_graph_buffer_rejected () =
  let cfg = Config.create ~granularity:1.0 () in
  let p = Config.add_processor cfg ~name:"p" ~replenishment:40.0 () in
  let m = Config.add_memory cfg ~name:"m" ~capacity:10 in
  let g1 = Config.add_graph cfg ~name:"g1" ~period:10.0 () in
  let g2 = Config.add_graph cfg ~name:"g2" ~period:10.0 () in
  let w1 = Config.add_task cfg g1 ~name:"w1" ~proc:p ~wcet:1.0 () in
  let w2 = Config.add_task cfg g2 ~name:"w2" ~proc:p ~wcet:1.0 () in
  Alcotest.check_raises "cross graph"
    (Invalid_argument "Config.add_buffer: endpoint tasks must belong to the graph")
    (fun () ->
      ignore
        (Config.add_buffer cfg g1 ~name:"b" ~src:w1 ~dst:w2 ~memory:m ()))

let test_invalid_arguments () =
  let cfg = Config.create ~granularity:1.0 () in
  Alcotest.check_raises "bad replenishment"
    (Invalid_argument "Config.add_processor: replenishment must be > 0")
    (fun () ->
      ignore (Config.add_processor cfg ~name:"p" ~replenishment:0.0 ()));
  Alcotest.check_raises "bad granularity"
    (Invalid_argument "Config.create: granularity must be > 0") (fun () ->
      ignore (Config.create ~granularity:0.0 ()))

let test_validate_flags_impossible () =
  let cfg = Config.create ~granularity:1.0 () in
  let p = Config.add_processor cfg ~name:"p" ~replenishment:5.0 () in
  let _m = Config.add_memory cfg ~name:"m" ~capacity:0 in
  let g = Config.add_graph cfg ~name:"g" ~period:3.0 () in
  (* wcet 4 > period 3: hopeless. *)
  let _w = Config.add_task cfg g ~name:"w" ~proc:p ~wcet:4.0 () in
  let problems = Config.validate cfg in
  Alcotest.(check bool) "flags wcet > period" true
    (List.exists
       (fun s -> String.length s > 0 && String.sub s 0 4 = "task")
       problems)

let test_validate_clean () =
  let cfg, _, _, _, _, _, _, _ = sample () in
  Alcotest.(check (list string)) "no problems" [] (Config.validate cfg)

(* After [copy], each side grows and mutates on its own: the same
   fresh id denotes a different entity on each side, and no setter
   reaches across. *)
let test_copy_growth_isolation () =
  let cfg, _, _, _, g, wa, _, b = sample () in
  let copy = Config.copy cfg in
  (* Grow both sides past any spare capacity the original had, with
     different names, so a shared backing array would mix them up. *)
  let grow t tag =
    let p = Config.add_processor t ~name:(tag ^ "p") ~replenishment:30.0 () in
    let m = Config.add_memory t ~name:(tag ^ "m") ~capacity:7 in
    let g' = Config.add_graph t ~name:(tag ^ "g") ~period:20.0 () in
    let ws =
      List.init 20 (fun i ->
          Config.add_task t g
            ~name:(Printf.sprintf "%sw%d" tag i)
            ~proc:p ~wcet:1.0 ())
    in
    let bs =
      List.init 20 (fun i ->
          Config.add_buffer t g
            ~name:(Printf.sprintf "%sb%d" tag i)
            ~src:wa ~dst:(List.nth ws i) ~memory:m ())
    in
    (p, m, g', ws, bs)
  in
  let op, om, og, ows, obs = grow cfg "orig-" in
  let cp, cm, cg, cws, cbs = grow copy "copy-" in
  Alcotest.(check bool) "fresh ids coincide" true
    (Config.proc_id op = Config.proc_id cp
    && Config.memory_id om = Config.memory_id cm
    && Config.graph_id og = Config.graph_id cg
    && List.map Config.task_id ows = List.map Config.task_id cws
    && List.map Config.buffer_id obs = List.map Config.buffer_id cbs);
  Alcotest.(check string) "proc on original" "orig-p" (Config.proc_name cfg op);
  Alcotest.(check string) "proc on copy" "copy-p" (Config.proc_name copy op);
  Alcotest.(check string) "memory on copy" "copy-m"
    (Config.memory_name copy om);
  Alcotest.(check string) "graph on original" "orig-g"
    (Config.graph_name cfg og);
  List.iteri
    (fun i w ->
      Alcotest.(check string) "task on original"
        (Printf.sprintf "orig-w%d" i) (Config.task_name cfg w);
      Alcotest.(check string) "task on copy"
        (Printf.sprintf "copy-w%d" i) (Config.task_name copy w))
    ows;
  List.iteri
    (fun i b' ->
      Alcotest.(check string) "buffer on original"
        (Printf.sprintf "orig-b%d" i) (Config.buffer_name cfg b');
      Alcotest.(check string) "buffer on copy"
        (Printf.sprintf "copy-b%d" i) (Config.buffer_name copy b'))
    obs;
  Alcotest.check_raises "copy's task absent from original" Not_found (fun () ->
      ignore (Config.find_task cfg "copy-w0"));
  Alcotest.check_raises "original's task absent from copy" Not_found (fun () ->
      ignore (Config.find_task copy "orig-w0"));
  Alcotest.(check int) "original task count" 22
    (List.length (Config.all_tasks cfg));
  Alcotest.(check int) "copy buffer count" 21
    (List.length (Config.all_buffers copy));
  (* Setters, in both directions. *)
  Config.set_period copy g 99.0;
  Config.set_task_weight copy wa 7.0;
  Config.set_buffer_weight copy b 3.0;
  Config.set_max_capacity copy b None;
  check_float 0.0 "original period" 10.0 (Config.period cfg g);
  check_float 0.0 "original task weight" 2.0 (Config.task_weight cfg wa);
  check_float 0.0 "original buffer weight" 0.5 (Config.buffer_weight cfg b);
  Alcotest.(check (option int)) "original cap" (Some 8)
    (Config.max_capacity cfg b);
  Config.set_period cfg g 11.0;
  Config.set_task_weight cfg wa 5.0;
  Config.set_buffer_weight cfg b 4.0;
  Config.set_max_capacity cfg b (Some 12);
  check_float 0.0 "copy period" 99.0 (Config.period copy g);
  check_float 0.0 "copy task weight" 7.0 (Config.task_weight copy wa);
  check_float 0.0 "copy buffer weight" 3.0 (Config.buffer_weight copy b);
  Alcotest.(check (option int)) "copy cap" None (Config.max_capacity copy b)

(* Every accessor returns what its [add_*] was given, in id order, on
   configurations of up to 1000 tasks; the enumerations agree with a
   filter over the same records. *)
let prop_accessors_match_adds =
  QCheck2.Test.make ~name:"accessors return what add_* was given" ~count:20
    QCheck2.Gen.(pair (int_range 1 1000) int)
    (fun (ntasks, seed) ->
      let rs = Random.State.make [| seed |] in
      let pick n = Random.State.int rs n in
      let nprocs = 1 + pick 20 and nmems = 1 + pick 4
      and ngraphs = 1 + pick 4 in
      let cfg = Config.create ~granularity:1.0 () in
      let procs =
        Array.init nprocs (fun i ->
            let r = 10.0 +. float_of_int i and o = float_of_int (i mod 3) in
            (Config.add_processor cfg ~name:(Printf.sprintf "p%d" i)
               ~replenishment:r ~overhead:o (), r, o))
      in
      let mems =
        Array.init nmems (fun i ->
            (Config.add_memory cfg ~name:(Printf.sprintf "m%d" i)
               ~capacity:(100 * i), 100 * i))
      in
      let graphs =
        Array.init ngraphs (fun i ->
            let mu = 5.0 +. float_of_int i in
            ( Config.add_graph cfg ~name:(Printf.sprintf "g%d" i) ~period:mu (),
              mu ))
      in
      let tasks =
        Array.init ntasks (fun i ->
            let g = pick ngraphs and p = pick nprocs in
            let wcet = 0.5 +. float_of_int (pick 8)
            and weight = float_of_int (pick 5) in
            let w =
              Config.add_task cfg (fst graphs.(g))
                ~name:(Printf.sprintf "w%d" i)
                ~proc:(let p', _, _ = procs.(p) in p')
                ~wcet ~weight ()
            in
            (w, g, p, wcet, weight))
      in
      let buffers =
        Array.init (pick (ntasks + 1)) (fun i ->
            let src, g, _, _, _ = tasks.(pick ntasks) in
            (* Any task of the same graph, the source itself included. *)
            let dst =
              let rec find k =
                let w, g', _, _, _ = tasks.(k mod ntasks) in
                if g' = g then w else find (k + 1)
              in
              find (pick ntasks)
            in
            let m = pick nmems and zeta = 1 + pick 4 and iota = pick 3 in
            let weight = float_of_int (pick 5) in
            let b =
              Config.add_buffer cfg (fst graphs.(g))
                ~name:(Printf.sprintf "b%d" i)
                ~src ~dst ~memory:(fst mems.(m)) ~container_size:zeta
                ~initial_tokens:iota ~weight ()
            in
            (b, g, src, dst, m, zeta, iota, weight))
      in
      let ids f a = Array.to_list (Array.map f a) in
      let filter_ids f a =
        List.filteri (fun i _ -> f a.(i)) (List.init (Array.length a) Fun.id)
      in
      Array.for_all
        (fun (p, r, o) ->
          Config.replenishment cfg p = r && Config.overhead cfg p = o
          && Config.find_proc cfg (Config.proc_name cfg p) = p)
        procs
      && Array.for_all (fun (m, c) -> Config.memory_capacity cfg m = c) mems
      && Array.for_all (fun (g, mu) -> Config.period cfg g = mu) graphs
      && Array.for_all
           (fun (w, g, p, wcet, weight) ->
             Config.task_graph cfg w = fst graphs.(g)
             && Config.task_proc cfg w = (let p', _, _ = procs.(p) in p')
             && Config.wcet cfg w = wcet
             && Config.task_weight cfg w = weight
             && Config.find_task cfg (Config.task_name cfg w) = w)
           tasks
      && Array.for_all
           (fun (b, g, src, dst, m, zeta, iota, weight) ->
             Config.buffer_src cfg b = src
             && Config.buffer_dst cfg b = dst
             && Config.buffer_memory cfg b = fst mems.(m)
             && Config.container_size cfg b = zeta
             && Config.initial_tokens cfg b = iota
             && Config.buffer_weight cfg b = weight
             && Config.max_capacity cfg b = None
             && Config.find_buffer cfg (Config.buffer_name cfg b) = b
             && Config.task_graph cfg src = fst graphs.(g))
           buffers
      && List.map Config.task_id (Config.all_tasks cfg)
         = ids (fun (w, _, _, _, _) -> Config.task_id w) tasks
      && List.map Config.buffer_id (Config.all_buffers cfg)
         = ids (fun (b, _, _, _, _, _, _, _) -> Config.buffer_id b) buffers
      && List.for_all
           (fun gi ->
             List.map Config.task_id (Config.tasks cfg (fst graphs.(gi)))
             = filter_ids (fun (_, g, _, _, _) -> g = gi) tasks
             && List.map Config.buffer_id
                  (Config.buffers cfg (fst graphs.(gi)))
                = filter_ids (fun (_, g, _, _, _, _, _, _) -> g = gi) buffers)
           (List.init ngraphs Fun.id)
      && List.for_all
           (fun pi ->
             let p, _, _ = procs.(pi) in
             List.map Config.task_id (Config.tasks_on cfg p)
             = filter_ids (fun (_, _, p', _, _) -> p' = pi) tasks)
           (List.init nprocs Fun.id)
      && List.for_all
           (fun mi ->
             List.map Config.buffer_id (Config.buffers_in cfg (fst mems.(mi)))
             = filter_ids (fun (_, _, _, _, m, _, _, _) -> m = mi) buffers)
           (List.init nmems Fun.id))

(* ------------------------------------------------------------------ *)
(* Parser                                                              *)
(* ------------------------------------------------------------------ *)

let sample_text =
  {|# paper experiment 1
granularity 2
processor p1 replenishment 40 overhead 1.5
processor p2 replenishment 50
memory m1 capacity 64
taskgraph job period 10
  task wa proc p1 wcet 1 weight 2
  task wb proc p2 wcet 1.5
  buffer bab from wa to wb memory m1 container 4 initial 1 weight 0.5 max 8
|}

let test_parse_sample () =
  let cfg = Parse.config_of_string sample_text in
  check_float 0.0 "granularity" 2.0 (Config.granularity cfg);
  let p1 = Config.find_proc cfg "p1" in
  check_float 0.0 "overhead" 1.5 (Config.overhead cfg p1);
  let b = Config.find_buffer cfg "bab" in
  Alcotest.(check int) "container" 4 (Config.container_size cfg b);
  Alcotest.(check (option int)) "max" (Some 8) (Config.max_capacity cfg b)

let test_parse_roundtrip () =
  let cfg, _, _, _, _, _, _, _ = sample () in
  let text = Format.asprintf "%a" Config.pp cfg in
  let cfg' = Parse.config_of_string text in
  let text' = Format.asprintf "%a" Config.pp cfg' in
  Alcotest.(check string) "pp ∘ parse ∘ pp stable" text text'

let expect_parse_error ?line text =
  match Parse.config_of_string text with
  | exception Parse.Parse_error (l, _) -> begin
    match line with
    | None -> ()
    | Some expected -> Alcotest.(check int) "error line" expected l
  end
  | _ -> Alcotest.fail "expected a parse error"

let test_parse_errors () =
  expect_parse_error ~line:1 "frobnicate x";
  expect_parse_error ~line:1 "processor p1";
  expect_parse_error ~line:1 "processor p1 replenishment abc";
  expect_parse_error ~line:1 "task w proc p wcet 1";
  (* task outside graph *)
  expect_parse_error ~line:2 "processor p replenishment 40\ntask w proc p wcet 1";
  (* unknown processor *)
  expect_parse_error "taskgraph g period 10\n  task w proc nope wcet 1";
  (* attribute without value *)
  expect_parse_error ~line:1 "memory m capacity"

let test_parse_comments_and_blanks () =
  let cfg =
    Parse.config_of_string
      "# header\n\nprocessor p replenishment 40\n   \n# tail\n"
  in
  Alcotest.(check int) "one processor" 1 (List.length (Config.processors cfg))

let test_parse_semantic_error_has_line () =
  (* Duplicate name surfaces as a Parse_error with the offending line. *)
  expect_parse_error ~line:2
    "processor p replenishment 40\nprocessor p replenishment 40"


(* ------------------------------------------------------------------ *)
(* Parser fuzzing against generated workloads                          *)
(* ------------------------------------------------------------------ *)

let prop_roundtrip_generated =
  QCheck2.Test.make
    ~name:"pp/parse round-trips every generated workload" ~count:100
    QCheck2.Gen.(pair (int_range 0 5) (int_range 0 100_000))
    (fun (kind, seed) ->
      let rng = Workloads.Rng.create (Int64.of_int seed) in
      let cfg =
        match kind with
        | 0 -> Workloads.Gen.paper_t1 ()
        | 1 -> Workloads.Gen.paper_t2 ()
        | 2 -> Workloads.Gen.chain ~n:(2 + Workloads.Rng.int rng ~bound:6) ()
        | 3 ->
          Workloads.Gen.split_join
            ~branches:(1 + Workloads.Rng.int rng ~bound:4)
            ()
        | 4 ->
          Workloads.Gen.ring
            ~n:(2 + Workloads.Rng.int rng ~bound:4)
            ~initial:(1 + Workloads.Rng.int rng ~bound:3)
            ()
        | _ ->
          Workloads.Gen.multi_job rng
            ~jobs:(1 + Workloads.Rng.int rng ~bound:3)
            ~tasks_per_job:(2 + Workloads.Rng.int rng ~bound:2)
            ~procs:(2 + Workloads.Rng.int rng ~bound:2)
            ()
      in
      let text = Format.asprintf "%a" Config.pp cfg in
      let cfg' = Parse.config_of_string text in
      Format.asprintf "%a" Config.pp cfg' = text)

let prop_parser_never_crashes =
  (* Mutated inputs must either parse or raise Parse_error — nothing
     else. *)
  QCheck2.Test.make ~name:"parser total on mutated inputs" ~count:300
    QCheck2.Gen.(pair (int_range 0 100_000) (small_string ~gen:printable))
    (fun (seed, junk) ->
      let rng = Workloads.Rng.create (Int64.of_int seed) in
      let base =
        Format.asprintf "%a" Config.pp
          (Workloads.Gen.chain ~n:(2 + Workloads.Rng.int rng ~bound:3) ())
      in
      (* Splice junk at a random position. *)
      let pos = Workloads.Rng.int rng ~bound:(String.length base + 1) in
      let mutated =
        String.sub base 0 pos ^ junk
        ^ String.sub base pos (String.length base - pos)
      in
      match Parse.config_of_string mutated with
      | _ -> true
      | exception Parse.Parse_error _ -> true)

let prop_mapped_parser_total =
  (* Arbitrary byte strings (not just printable mutations) must either
     parse or raise Parse_error with a 1-based line — never escape with
     another exception. *)
  QCheck2.Test.make ~name:"Mapped_io.parse total on arbitrary bytes"
    ~count:500 QCheck2.Gen.string (fun junk ->
      let cfg, _, _, _, _, _, _, _ = sample () in
      match Mapped_io.parse cfg junk with
      | _ -> true
      | exception Mapped_io.Parse_error (line, _) -> line >= 1)

let prop_mapped_roundtrip_random =
  (* print → parse round-trips any mapping whose budgets survive the
     %g rendering exactly (integers up to six significant digits). *)
  QCheck2.Test.make ~name:"Mapped_io print/parse round-trip" ~count:200
    QCheck2.Gen.(
      triple (int_range 1 999_999) (int_range 1 999_999) (int_range 1 10_000))
    (fun (ba, bb, cap) ->
      let cfg, _, _, _, _, wa, wb, b = sample () in
      let mapped =
        {
          Config.budget =
            (fun w ->
              float_of_int
                (if Config.task_id w = Config.task_id wa then ba else bb));
          Config.capacity = (fun _ -> cap);
        }
      in
      let text = Format.asprintf "%a" (Mapped_io.print cfg) mapped in
      let back = Mapped_io.parse cfg text in
      back.Config.budget wa = float_of_int ba
      && back.Config.budget wb = float_of_int bb
      && back.Config.capacity b = cap)



(* ------------------------------------------------------------------ *)
(* Mapped_io                                                           *)
(* ------------------------------------------------------------------ *)

let sample_mapped (_cfg : Config.t) =
  {
    Config.budget = (fun w -> 2.0 +. float_of_int (Config.task_id w));
    Config.capacity = (fun b -> 3 + Config.buffer_id b);
  }

let test_mapped_roundtrip () =
  let cfg, _, _, _, _, wa, wb, b = sample () in
  let mapped = sample_mapped cfg in
  let text = Format.asprintf "%a" (Mapped_io.print cfg) mapped in
  let back = Mapped_io.parse cfg text in
  check_float 0.0 "budget wa" (mapped.Config.budget wa) (back.Config.budget wa);
  check_float 0.0 "budget wb" (mapped.Config.budget wb) (back.Config.budget wb);
  Alcotest.(check int) "capacity" (mapped.Config.capacity b)
    (back.Config.capacity b)

let expect_mapped_error ?line cfg text =
  match Mapped_io.parse cfg text with
  | exception Mapped_io.Parse_error (l, _) -> begin
    match line with
    | None -> ()
    | Some expected -> Alcotest.(check int) "line" expected l
  end
  | _ -> Alcotest.fail "expected a parse error"

let test_mapped_errors () =
  let cfg, _, _, _, _, _, _, _ = sample () in
  (* missing entries are blamed on the last line *)
  expect_mapped_error ~line:1 cfg "budget wa 4";
  expect_mapped_error ~line:1 cfg "";
  (* unknown names *)
  expect_mapped_error ~line:1 cfg "budget nosuch 4";
  expect_mapped_error ~line:1 cfg "capacity nosuch 4";
  (* duplicates *)
  expect_mapped_error ~line:2 cfg
    "budget wa 4\nbudget wa 5\nbudget wb 4\ncapacity bab 4";
  (* invalid values *)
  expect_mapped_error ~line:1 cfg
    "budget wa 0\nbudget wb 4\ncapacity bab 4";
  (* capacity below initial tokens (bab has iota = 1... capacity 0) *)
  expect_mapped_error ~line:3 cfg
    "budget wa 4\nbudget wb 4\ncapacity bab 0";
  (* junk line *)
  expect_mapped_error ~line:1 cfg "hello world"

let test_mapped_comments_ok () =
  let cfg, _, _, _, _, wa, _, _ = sample () in
  let mapped =
    Mapped_io.parse cfg
      "# a mapping\nbudget wa 4\nbudget wb 6\ncapacity bab 2\n"
  in
  check_float 0.0 "wa" 4.0 (mapped.Config.budget wa)


let () =
  Alcotest.run "taskgraph"
    [
      ( "config",
        [
          Alcotest.test_case "accessors" `Quick test_accessors;
          Alcotest.test_case "collections" `Quick test_collections;
          Alcotest.test_case "lookup" `Quick test_lookup;
          Alcotest.test_case "duplicate names" `Quick
            test_duplicate_names_rejected;
          Alcotest.test_case "cross-graph buffer" `Quick
            test_cross_graph_buffer_rejected;
          Alcotest.test_case "invalid arguments" `Quick test_invalid_arguments;
          Alcotest.test_case "validate flags impossible" `Quick
            test_validate_flags_impossible;
          Alcotest.test_case "validate clean" `Quick test_validate_clean;
          Alcotest.test_case "copy growth isolation" `Quick
            test_copy_growth_isolation;
          QCheck_alcotest.to_alcotest prop_accessors_match_adds;
        ] );
      ( "parse",
        [
          Alcotest.test_case "sample" `Quick test_parse_sample;
          Alcotest.test_case "roundtrip" `Quick test_parse_roundtrip;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "comments and blanks" `Quick
            test_parse_comments_and_blanks;
          Alcotest.test_case "semantic error line" `Quick
            test_parse_semantic_error_has_line;
        ] );
      ( "mapped-io",
        [
          Alcotest.test_case "roundtrip" `Quick test_mapped_roundtrip;
          Alcotest.test_case "errors" `Quick test_mapped_errors;
          Alcotest.test_case "comments" `Quick test_mapped_comments_ok;
        ] );
      ( "fuzz",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_roundtrip_generated; prop_parser_never_crashes;
            prop_mapped_parser_total; prop_mapped_roundtrip_random;
          ] );
    ]
