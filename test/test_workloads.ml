(* Tests for the deterministic PRNG and the workload generators. *)

module Config = Taskgraph.Config
module Rng = Workloads.Rng
module Gen = Workloads.Gen

let check_float eps = Alcotest.(check (float eps))

(* ------------------------------------------------------------------ *)
(* Rng                                                                 *)
(* ------------------------------------------------------------------ *)

let test_rng_deterministic () =
  let a = Rng.create 42L and b = Rng.create 42L in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Rng.int a ~bound:1000)
      (Rng.int b ~bound:1000)
  done

let test_rng_seeds_differ () =
  let a = Rng.create 1L and b = Rng.create 2L in
  let xs = List.init 10 (fun _ -> Rng.int a ~bound:1_000_000) in
  let ys = List.init 10 (fun _ -> Rng.int b ~bound:1_000_000) in
  Alcotest.(check bool) "different streams" false (xs = ys)

let test_rng_ranges () =
  let r = Rng.create 7L in
  for _ = 1 to 1000 do
    let i = Rng.int r ~bound:10 in
    if i < 0 || i >= 10 then Alcotest.fail "int out of range";
    let f = Rng.float r ~lo:2.0 ~hi:3.0 in
    if f < 2.0 || f >= 3.0 then Alcotest.fail "float out of range"
  done

let test_rng_invalid () =
  let r = Rng.create 0L in
  Alcotest.check_raises "bound 0" (Invalid_argument "Rng.int: bound must be > 0")
    (fun () -> ignore (Rng.int r ~bound:0));
  Alcotest.check_raises "empty range"
    (Invalid_argument "Rng.float: empty range") (fun () ->
      ignore (Rng.float r ~lo:1.0 ~hi:1.0))

let test_rng_split_independent () =
  let r = Rng.create 9L in
  let s = Rng.split r in
  let a = Rng.int s ~bound:1_000_000 in
  (* Consuming from the parent must not change what the child already
     produced; and a re-derived run yields the same values. *)
  let r' = Rng.create 9L in
  let s' = Rng.split r' in
  Alcotest.(check int) "reproducible split" a (Rng.int s' ~bound:1_000_000)

let test_rng_rough_uniformity () =
  let r = Rng.create 1234L in
  let buckets = Array.make 10 0 in
  let n = 10_000 in
  for _ = 1 to n do
    let i = Rng.int r ~bound:10 in
    buckets.(i) <- buckets.(i) + 1
  done;
  Array.iter
    (fun c ->
      (* Expected 1000 ± a generous 20%. *)
      if c < 800 || c > 1200 then
        Alcotest.failf "bucket count %d far from uniform" c)
    buckets

(* ------------------------------------------------------------------ *)
(* Generators                                                          *)
(* ------------------------------------------------------------------ *)

let test_paper_t1_shape () =
  let cfg = Gen.paper_t1 () in
  Alcotest.(check int) "2 processors" 2 (List.length (Config.processors cfg));
  Alcotest.(check int) "2 tasks" 2 (List.length (Config.all_tasks cfg));
  Alcotest.(check int) "1 buffer" 1 (List.length (Config.all_buffers cfg));
  check_float 0.0 "̺" 40.0 (Config.replenishment cfg (Config.find_proc cfg "p1"));
  check_float 0.0 "µ" 10.0 (Config.period cfg (Config.find_graph cfg "t1"));
  check_float 0.0 "χ" 1.0 (Config.wcet cfg (Config.find_task cfg "wa"));
  Alcotest.(check (list string)) "valid" [] (Config.validate cfg)

let test_paper_t2_shape () =
  let cfg = Gen.paper_t2 () in
  Alcotest.(check int) "3 processors" 3 (List.length (Config.processors cfg));
  Alcotest.(check int) "3 tasks" 3 (List.length (Config.all_tasks cfg));
  Alcotest.(check int) "2 buffers" 2 (List.length (Config.all_buffers cfg));
  let bbc = Config.find_buffer cfg "bbc" in
  Alcotest.(check string) "bbc src" "wb"
    (Config.task_name cfg (Config.buffer_src cfg bbc));
  Alcotest.(check string) "bbc dst" "wc"
    (Config.task_name cfg (Config.buffer_dst cfg bbc))

let test_chain_shape () =
  let cfg = Gen.chain ~n:5 () in
  Alcotest.(check int) "tasks" 5 (List.length (Config.all_tasks cfg));
  Alcotest.(check int) "buffers" 4 (List.length (Config.all_buffers cfg));
  Alcotest.(check int) "processors" 5 (List.length (Config.processors cfg));
  (* Buffer i connects wi → w(i+1). *)
  let b2 = Config.find_buffer cfg "b2" in
  Alcotest.(check string) "b2 src" "w2"
    (Config.task_name cfg (Config.buffer_src cfg b2));
  Alcotest.(check string) "b2 dst" "w3"
    (Config.task_name cfg (Config.buffer_dst cfg b2))

let test_chain_shared_procs () =
  let cfg = Gen.chain ~n:6 ~shared_procs:2 () in
  Alcotest.(check int) "processors" 2 (List.length (Config.processors cfg));
  let p0 = Config.find_proc cfg "p0" in
  Alcotest.(check int) "3 tasks on p0" 3 (List.length (Config.tasks_on cfg p0))

let test_chain_invalid () =
  Alcotest.check_raises "n = 1" (Invalid_argument "Gen.chain: n must be >= 2")
    (fun () -> ignore (Gen.chain ~n:1 ()))

let test_split_join_shape () =
  let cfg = Gen.split_join ~branches:3 () in
  Alcotest.(check int) "tasks" 5 (List.length (Config.all_tasks cfg));
  Alcotest.(check int) "buffers" 6 (List.length (Config.all_buffers cfg));
  (* Source fans out to 3, sink fans in from 3. *)
  let w0 = Config.find_task cfg "w0" and w4 = Config.find_task cfg "w4" in
  let outs =
    List.filter (fun b -> Config.buffer_src cfg b = w0) (Config.all_buffers cfg)
  in
  let ins =
    List.filter (fun b -> Config.buffer_dst cfg b = w4) (Config.all_buffers cfg)
  in
  Alcotest.(check int) "fan-out" 3 (List.length outs);
  Alcotest.(check int) "fan-in" 3 (List.length ins)

let test_ring_shape () =
  let cfg = Gen.ring ~n:4 ~initial:2 () in
  Alcotest.(check int) "buffers" 4 (List.length (Config.all_buffers cfg));
  let back = Config.find_buffer cfg "b3" in
  Alcotest.(check int) "tokens on feedback" 2 (Config.initial_tokens cfg back);
  Alcotest.(check string) "closes the ring" "w0"
    (Config.task_name cfg (Config.buffer_dst cfg back))

let test_random_chain_reproducible () =
  let build seed =
    let cfg = Gen.random_chain (Rng.create seed) ~n:4 () in
    Format.asprintf "%a" Config.pp cfg
  in
  Alcotest.(check string) "same seed, same config" (build 99L) (build 99L);
  Alcotest.(check bool) "different seeds differ" false (build 1L = build 2L)

let test_multi_job_shape () =
  let cfg = Gen.multi_job (Rng.create 3L) ~jobs:3 ~tasks_per_job:4 ~procs:2 () in
  Alcotest.(check int) "graphs" 3 (List.length (Config.graphs cfg));
  Alcotest.(check int) "tasks" 12 (List.length (Config.all_tasks cfg));
  Alcotest.(check int) "processors" 2 (List.length (Config.processors cfg));
  (* Round-robin: 6 tasks per processor. *)
  List.iter
    (fun p ->
      Alcotest.(check int) "balanced" 6 (List.length (Config.tasks_on cfg p)))
    (Config.processors cfg)

let test_multi_job_invalid () =
  Alcotest.(check bool) "too dense rejected" true
    (match
       Gen.multi_job (Rng.create 0L) ~jobs:40 ~tasks_per_job:40 ~procs:1 ()
     with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* ------------------------------------------------------------------ *)
(* Generated workloads are solvable                                    *)
(* ------------------------------------------------------------------ *)

let solvable cfg =
  match Budgetbuf.Mapping.solve cfg with
  | Ok r -> Budgetbuf.Dataflow_model.verify cfg r.Budgetbuf.Mapping.mapped = []
  | Error _ -> false

let test_generators_solvable () =
  Alcotest.(check bool) "t1" true (solvable (Gen.paper_t1 ()));
  Alcotest.(check bool) "t2" true (solvable (Gen.paper_t2 ()));
  Alcotest.(check bool) "chain" true (solvable (Gen.chain ~n:4 ()));
  Alcotest.(check bool) "split_join" true
    (solvable (Gen.split_join ~branches:2 ()));
  Alcotest.(check bool) "ring" true (solvable (Gen.ring ~n:3 ~initial:4 ()))

let prop_multi_job_solvable =
  QCheck2.Test.make ~name:"multi-job instances are solvable" ~count:10
    QCheck2.Gen.(
      tup4 (int_range 1 3) (int_range 2 3) (int_range 2 4)
        (int_range 0 1_000))
    (fun (jobs, tasks_per_job, procs, seed) ->
      let cfg =
        Gen.multi_job
          (Rng.create (Int64.of_int seed))
          ~jobs ~tasks_per_job ~procs ()
      in
      solvable cfg)


(* ------------------------------------------------------------------ *)
(* Mesh and tree generators                                            *)
(* ------------------------------------------------------------------ *)

let test_mesh_shape () =
  let cfg = Gen.mesh ~rows:2 ~cols:3 () in
  Alcotest.(check int) "tasks" 6 (List.length (Config.all_tasks cfg));
  (* Edges: right: 2·2 = 4, down: 1·3 = 3 → 7. *)
  Alcotest.(check int) "buffers" 7 (List.length (Config.all_buffers cfg));
  (* Corner task w0_0 fans out to w1_0 and w0_1. *)
  let w00 = Config.find_task cfg "w0_0" in
  let outs =
    List.filter
      (fun b -> Config.buffer_src cfg b = w00)
      (Config.all_buffers cfg)
  in
  Alcotest.(check int) "corner fan-out" 2 (List.length outs)

let test_mesh_invalid () =
  Alcotest.(check bool) "1x1 rejected" true
    (match Gen.mesh ~rows:1 ~cols:1 () with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_tree_shape () =
  let cfg = Gen.binary_tree ~depth:2 () in
  Alcotest.(check int) "tasks" 7 (List.length (Config.all_tasks cfg));
  Alcotest.(check int) "buffers" 6 (List.length (Config.all_buffers cfg));
  (* Leaves have no outgoing buffers. *)
  let leaves =
    List.filter
      (fun w ->
        not
          (List.exists
             (fun b -> Config.buffer_src cfg b = w)
             (Config.all_buffers cfg)))
      (Config.all_tasks cfg)
  in
  Alcotest.(check int) "four leaves" 4 (List.length leaves)

let test_mesh_tree_solvable () =
  Alcotest.(check bool) "mesh" true (solvable (Gen.mesh ~rows:2 ~cols:2 ()));
  Alcotest.(check bool) "tree" true (solvable (Gen.binary_tree ~depth:2 ()))

let test_chain_custom_params () =
  let cfg =
    Gen.chain ~n:3 ~replenishment:50.0 ~wcet:2.0 ~period:20.0
      ~budget_weight:3.0 ~buffer_weight:0.5 ()
  in
  check_float 0.0 "replenishment" 50.0
    (Config.replenishment cfg (Config.find_proc cfg "p0"));
  check_float 0.0 "period" 20.0 (Config.period cfg (Config.find_graph cfg "t0"));
  check_float 0.0 "wcet" 2.0 (Config.wcet cfg (Config.find_task cfg "w1"));
  check_float 0.0 "budget weight" 3.0
    (Config.task_weight cfg (Config.find_task cfg "w1"));
  check_float 0.0 "buffer weight" 0.5
    (Config.buffer_weight cfg (Config.find_buffer cfg "b0"))



(* ------------------------------------------------------------------ *)
(* Application suite                                                   *)
(* ------------------------------------------------------------------ *)

module Apps = Workloads.Apps

let test_apps_shapes () =
  let h263 = Apps.h263_decoder () in
  Alcotest.(check int) "h263 tasks" 4 (List.length (Config.all_tasks h263));
  let mp3 = Apps.mp3_playback () in
  Alcotest.(check int) "mp3 tasks" 5 (List.length (Config.all_tasks mp3));
  let modem = Apps.modem () in
  Alcotest.(check int) "modem buffers" 6
    (List.length (Config.all_buffers modem));
  let radio = Apps.car_radio () in
  Alcotest.(check int) "car radio jobs" 2 (List.length (Config.graphs radio));
  List.iter
    (fun (_, build) ->
      Alcotest.(check (list string)) "valid" [] (Config.validate (build ())))
    Apps.all

let test_apps_solvable_and_simulate () =
  List.iter
    (fun (name, build) ->
      let cfg = build () in
      match Budgetbuf.Mapping.solve cfg with
      | Error e ->
        Alcotest.failf "%s failed: %a" name Budgetbuf.Mapping.pp_error e
      | Ok r ->
        Alcotest.(check (list string)) (name ^ " verifies") []
          (List.map Budgetbuf.Violation.to_string
             (Budgetbuf.Dataflow_model.verify cfg r.Budgetbuf.Mapping.mapped)))
    Apps.all

let test_apps_registry () =
  Alcotest.(check int) "four applications" 4 (List.length Apps.all);
  Alcotest.(check bool) "unique names" true
    (let names = List.map fst Apps.all in
     List.length (List.sort_uniq compare names) = List.length names)


let () =
  Alcotest.run "workloads"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seeds differ" `Quick test_rng_seeds_differ;
          Alcotest.test_case "ranges" `Quick test_rng_ranges;
          Alcotest.test_case "invalid" `Quick test_rng_invalid;
          Alcotest.test_case "split" `Quick test_rng_split_independent;
          Alcotest.test_case "uniformity" `Quick test_rng_rough_uniformity;
        ] );
      ( "generators",
        [
          Alcotest.test_case "paper t1" `Quick test_paper_t1_shape;
          Alcotest.test_case "paper t2" `Quick test_paper_t2_shape;
          Alcotest.test_case "chain" `Quick test_chain_shape;
          Alcotest.test_case "chain shared procs" `Quick
            test_chain_shared_procs;
          Alcotest.test_case "chain invalid" `Quick test_chain_invalid;
          Alcotest.test_case "split join" `Quick test_split_join_shape;
          Alcotest.test_case "ring" `Quick test_ring_shape;
          Alcotest.test_case "random chain reproducible" `Quick
            test_random_chain_reproducible;
          Alcotest.test_case "multi job" `Quick test_multi_job_shape;
          Alcotest.test_case "multi job invalid" `Quick test_multi_job_invalid;
        ] );
      ( "mesh-tree",
        [
          Alcotest.test_case "mesh shape" `Quick test_mesh_shape;
          Alcotest.test_case "mesh invalid" `Quick test_mesh_invalid;
          Alcotest.test_case "tree shape" `Quick test_tree_shape;
          Alcotest.test_case "solvable" `Quick test_mesh_tree_solvable;
          Alcotest.test_case "chain params" `Quick test_chain_custom_params;
        ] );
      ( "apps",
        [
          Alcotest.test_case "shapes" `Quick test_apps_shapes;
          Alcotest.test_case "solvable" `Quick test_apps_solvable_and_simulate;
          Alcotest.test_case "registry" `Quick test_apps_registry;
        ] );
      ( "solvability",
        Alcotest.test_case "named generators" `Quick test_generators_solvable
        :: List.map QCheck_alcotest.to_alcotest [ prop_multi_job_solvable ] );
    ]
