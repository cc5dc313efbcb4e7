(* Tests for SRDF graphs and their temporal analysis: PAS existence,
   maximum cycle ratio (float Howard and the exact MCR, against the
   float oracles of pas_oracle.ml and karp.ml), self-timed execution,
   monotonicity. *)

module Srdf = Dataflow.Srdf
module Analysis = Dataflow.Analysis

let check_float eps = Alcotest.(check (float eps))

(* A two-actor ring: a → b (da tokens), b → a (db tokens).  The only
   cycles are the ring (ratio (ρa+ρb)/(da+db)) and none other. *)
let ring2 ~rho_a ~rho_b ~da ~db =
  let g = Srdf.create () in
  let a = Srdf.add_actor g ~name:"a" ~duration:rho_a in
  let b = Srdf.add_actor g ~name:"b" ~duration:rho_b in
  ignore (Srdf.add_edge g ~src:a ~dst:b ~tokens:da);
  ignore (Srdf.add_edge g ~src:b ~dst:a ~tokens:db);
  g

(* ------------------------------------------------------------------ *)
(* Srdf construction                                                   *)
(* ------------------------------------------------------------------ *)

let test_srdf_build () =
  let g = ring2 ~rho_a:2.0 ~rho_b:3.0 ~da:1 ~db:1 in
  Alcotest.(check int) "actors" 2 (Srdf.num_actors g);
  Alcotest.(check int) "edges" 2 (Srdf.num_edges g);
  let a = Srdf.find_actor g "a" in
  check_float 0.0 "duration" 2.0 (Srdf.duration g a);
  Alcotest.(check int) "out" 1 (List.length (Srdf.out_edges g a));
  Alcotest.(check int) "in" 1 (List.length (Srdf.in_edges g a));
  Alcotest.(check bool) "strongly connected" true (Srdf.is_strongly_connected g)

let test_srdf_validation () =
  let g = Srdf.create () in
  Alcotest.check_raises "negative duration"
    (Invalid_argument "Srdf.add_actor: duration must be finite and >= 0")
    (fun () -> ignore (Srdf.add_actor g ~name:"x" ~duration:(-1.0)));
  let a = Srdf.add_actor g ~name:"a" ~duration:1.0 in
  Alcotest.check_raises "negative tokens"
    (Invalid_argument "Srdf.add_edge: tokens must be >= 0") (fun () ->
      ignore (Srdf.add_edge g ~src:a ~dst:a ~tokens:(-1)));
  Alcotest.(check (list string)) "validate ok" [] (Srdf.validate g)

let test_srdf_find () =
  let g = ring2 ~rho_a:1.0 ~rho_b:1.0 ~da:0 ~db:1 in
  Alcotest.(check string) "name" "b" (Srdf.actor_name g (Srdf.find_actor g "b"));
  Alcotest.check_raises "absent" Not_found (fun () ->
      ignore (Srdf.find_actor g "zz"))

let test_srdf_not_strongly_connected () =
  let g = Srdf.create () in
  let a = Srdf.add_actor g ~name:"a" ~duration:1.0 in
  let b = Srdf.add_actor g ~name:"b" ~duration:1.0 in
  ignore (Srdf.add_edge g ~src:a ~dst:b ~tokens:0);
  Alcotest.(check bool) "chain" false (Srdf.is_strongly_connected g)

(* ------------------------------------------------------------------ *)
(* PAS existence (Constraint (1))                                      *)
(* ------------------------------------------------------------------ *)

let test_pas_ring () =
  (* Ring with total duration 5, total tokens 2: MCR = 2.5. *)
  let g = ring2 ~rho_a:2.0 ~rho_b:3.0 ~da:1 ~db:1 in
  Alcotest.(check bool) "period 2.5" true (Pas_oracle.pas_exists g ~period:2.5);
  Alcotest.(check bool) "period 3" true (Pas_oracle.pas_exists g ~period:3.0);
  Alcotest.(check bool) "period 2.49" false
    (Pas_oracle.pas_exists g ~period:2.49)

let test_pas_start_times_valid () =
  let g = ring2 ~rho_a:2.0 ~rho_b:3.0 ~da:1 ~db:1 in
  (match Pas_oracle.pas_start_times g ~period:2.5 with
  | None -> Alcotest.fail "expected a schedule"
  | Some s ->
    Alcotest.(check (list int))
      "no violated queues" []
      (List.map Srdf.edge_id (Pas_oracle.check_schedule g ~period:2.5 s)));
  match Pas_oracle.pas_start_times g ~period:2.0 with
  | None -> ()
  | Some _ -> Alcotest.fail "period below MCR must be rejected"

let test_pas_zero_token_cycle () =
  let g = ring2 ~rho_a:1.0 ~rho_b:1.0 ~da:0 ~db:0 in
  Alcotest.(check bool) "never schedulable" false
    (Pas_oracle.pas_exists g ~period:1000.0)

let test_pas_invalid_period () =
  let g = ring2 ~rho_a:1.0 ~rho_b:1.0 ~da:1 ~db:1 in
  Alcotest.check_raises "period 0"
    (Invalid_argument "Pas_oracle: period must be > 0") (fun () ->
      ignore (Pas_oracle.pas_exists g ~period:0.0))

let test_pas_token_override () =
  (* Continuous tokens: with δ = 0.8 on each edge the ring carries 1.6
     tokens, MCR = 5/1.6 = 3.125. *)
  let g = ring2 ~rho_a:2.0 ~rho_b:3.0 ~da:1 ~db:1 in
  let tokens _ = 0.8 in
  Alcotest.(check bool) "feasible" true
    (Pas_oracle.pas_exists ~tokens g ~period:3.2);
  Alcotest.(check bool) "infeasible" false
    (Pas_oracle.pas_exists ~tokens g ~period:3.0)

(* ------------------------------------------------------------------ *)
(* Maximum cycle ratio                                                 *)
(* ------------------------------------------------------------------ *)

let test_mcr_ring () =
  let g = ring2 ~rho_a:2.0 ~rho_b:3.0 ~da:1 ~db:1 in
  match Pas_oracle.max_cycle_ratio g with
  | Analysis.Mcr r -> check_float 1e-8 "mcr" 2.5 r
  | _ -> Alcotest.fail "expected Mcr"

let test_mcr_self_loop () =
  let g = Srdf.create () in
  let a = Srdf.add_actor g ~name:"a" ~duration:7.0 in
  ignore (Srdf.add_edge g ~src:a ~dst:a ~tokens:2);
  match Pas_oracle.max_cycle_ratio g with
  | Analysis.Mcr r -> check_float 1e-8 "mcr" 3.5 r
  | _ -> Alcotest.fail "expected Mcr"

let test_mcr_two_cycles () =
  (* Two nested cycles; the MCR is the worse (larger) ratio.
     Cycle 1: a→b→a, durations 2+3, tokens 2 → 2.5.
     Cycle 2: a→c→a, durations 2+10, tokens 3 → 4. *)
  let g = Srdf.create () in
  let a = Srdf.add_actor g ~name:"a" ~duration:2.0 in
  let b = Srdf.add_actor g ~name:"b" ~duration:3.0 in
  let c = Srdf.add_actor g ~name:"c" ~duration:10.0 in
  ignore (Srdf.add_edge g ~src:a ~dst:b ~tokens:1);
  ignore (Srdf.add_edge g ~src:b ~dst:a ~tokens:1);
  ignore (Srdf.add_edge g ~src:a ~dst:c ~tokens:1);
  ignore (Srdf.add_edge g ~src:c ~dst:a ~tokens:2);
  match Pas_oracle.max_cycle_ratio g with
  | Analysis.Mcr r -> check_float 1e-8 "mcr" 4.0 r
  | _ -> Alcotest.fail "expected Mcr"

let test_mcr_acyclic () =
  let g = Srdf.create () in
  let a = Srdf.add_actor g ~name:"a" ~duration:5.0 in
  let b = Srdf.add_actor g ~name:"b" ~duration:5.0 in
  ignore (Srdf.add_edge g ~src:a ~dst:b ~tokens:0);
  Alcotest.(check bool) "acyclic" true
    (Pas_oracle.max_cycle_ratio g = Analysis.Acyclic)

let test_mcr_deadlock () =
  let g = ring2 ~rho_a:1.0 ~rho_b:1.0 ~da:0 ~db:0 in
  Alcotest.(check bool) "deadlocked" true
    (Pas_oracle.max_cycle_ratio g = Analysis.Deadlocked)

let test_mcr_matches_pas_boundary () =
  (* pas_exists flips exactly at the MCR. *)
  let g = ring2 ~rho_a:1.7 ~rho_b:2.9 ~da:2 ~db:1 in
  match Pas_oracle.max_cycle_ratio g with
  | Analysis.Mcr r ->
    Alcotest.(check bool) "at mcr (+eps)" true
      (Pas_oracle.pas_exists g ~period:(r *. (1.0 +. 1e-9)));
    Alcotest.(check bool) "below mcr" false
      (Pas_oracle.pas_exists g ~period:(r *. 0.999))
  | _ -> Alcotest.fail "expected Mcr"

(* ------------------------------------------------------------------ *)
(* Self-timed execution                                                *)
(* ------------------------------------------------------------------ *)

let test_self_timed_period () =
  let g = ring2 ~rho_a:2.0 ~rho_b:3.0 ~da:1 ~db:1 in
  match Pas_oracle.self_timed ~iterations:200 g with
  | Error e -> Alcotest.fail e
  | Ok { measured_period; _ } ->
    (* The windowed estimate carries a sampling bias of at most one
       cycle duration over the measurement window (~5/99). *)
    check_float 0.1 "period = MCR" 2.5 measured_period

let test_self_timed_monotone_starts () =
  let g = ring2 ~rho_a:2.0 ~rho_b:3.0 ~da:1 ~db:2 in
  match Pas_oracle.self_timed ~iterations:50 g with
  | Error e -> Alcotest.fail e
  | Ok { starts; _ } ->
    let ok = ref true in
    for k = 1 to Array.length starts - 1 do
      for v = 0 to Array.length starts.(0) - 1 do
        if starts.(k).(v) < starts.(k - 1).(v) -. 1e-12 then ok := false
      done
    done;
    Alcotest.(check bool) "starts non-decreasing" true !ok

let test_self_timed_deadlock () =
  let g = ring2 ~rho_a:1.0 ~rho_b:1.0 ~da:0 ~db:0 in
  match Pas_oracle.self_timed g with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected deadlock"

let test_self_timed_faster_than_pas () =
  (* ASAP execution is at least as fast as any PAS period. *)
  let g = ring2 ~rho_a:1.3 ~rho_b:0.7 ~da:3 ~db:1 in
  match
    (Pas_oracle.self_timed ~iterations:300 g, Pas_oracle.max_cycle_ratio g)
  with
  | Ok { measured_period; _ }, Analysis.Mcr r ->
    Alcotest.(check bool) "measured <= MCR + eps" true
      (measured_period <= r +. 0.05)
  | _ -> Alcotest.fail "unexpected analysis outcome"

(* ------------------------------------------------------------------ *)
(* Temporal monotonicity (Section II-B2)                               *)
(* ------------------------------------------------------------------ *)

let prop_monotone_duration =
  QCheck2.Test.make
    ~name:"smaller firing duration never hurts the feasible period"
    ~count:100
    QCheck2.Gen.(
      tup4 (float_range 0.5 5.0) (float_range 0.5 5.0) (int_range 1 4)
        (float_range 0.0 1.0))
    (fun (rho_a, rho_b, tokens, shrink) ->
      let g1 = ring2 ~rho_a ~rho_b ~da:tokens ~db:1 in
      let g2 = ring2 ~rho_a:(rho_a *. shrink) ~rho_b ~da:tokens ~db:1 in
      match
        (Pas_oracle.max_cycle_ratio g1, Pas_oracle.max_cycle_ratio g2)
      with
      | Analysis.Mcr r1, Analysis.Mcr r2 -> r2 <= r1 +. 1e-9
      | _ -> false)

let prop_monotone_tokens =
  QCheck2.Test.make ~name:"more initial tokens never hurt" ~count:100
    QCheck2.Gen.(
      tup3 (float_range 0.5 5.0) (int_range 1 4) (int_range 0 3))
    (fun (rho, tokens, extra) ->
      let g1 = ring2 ~rho_a:rho ~rho_b:rho ~da:tokens ~db:1 in
      let g2 = ring2 ~rho_a:rho ~rho_b:rho ~da:(tokens + extra) ~db:1 in
      match
        (Pas_oracle.max_cycle_ratio g1, Pas_oracle.max_cycle_ratio g2)
      with
      | Analysis.Mcr r1, Analysis.Mcr r2 -> r2 <= r1 +. 1e-9
      | _ -> false)

let prop_self_timed_matches_mcr =
  QCheck2.Test.make ~name:"self-timed steady state equals the MCR"
    ~count:50
    QCheck2.Gen.(
      tup4 (float_range 0.5 4.0) (float_range 0.5 4.0) (int_range 1 3)
        (int_range 1 3))
    (fun (rho_a, rho_b, da, db) ->
      let g = ring2 ~rho_a ~rho_b ~da ~db in
      match (Pas_oracle.self_timed ~iterations:400 g, Pas_oracle.max_cycle_ratio g) with
      | Ok { measured_period; _ }, Analysis.Mcr r ->
        (* bias ≤ (ρa+ρb)/window = 8/199 *)
        Float.abs (measured_period -. r) <= 0.05 *. Float.max 1.0 r
      | _ -> false)


(* ------------------------------------------------------------------ *)
(* SCC decomposition                                                   *)
(* ------------------------------------------------------------------ *)

module Scc = Dataflow.Scc
module Howard = Dataflow.Howard

let test_scc_ring_plus_tail () =
  (* a <-> b strongly connected; c only reachable: two components. *)
  let g = Srdf.create () in
  let a = Srdf.add_actor g ~name:"a" ~duration:1.0 in
  let b = Srdf.add_actor g ~name:"b" ~duration:1.0 in
  let c = Srdf.add_actor g ~name:"c" ~duration:1.0 in
  ignore (Srdf.add_edge g ~src:a ~dst:b ~tokens:1);
  ignore (Srdf.add_edge g ~src:b ~dst:a ~tokens:1);
  ignore (Srdf.add_edge g ~src:b ~dst:c ~tokens:0);
  let scc = Scc.compute g in
  Alcotest.(check int) "two components" 2 (Scc.count scc);
  Alcotest.(check bool) "a and b together" true
    (Scc.component_of scc a = Scc.component_of scc b);
  Alcotest.(check bool) "c separate" true
    (Scc.component_of scc c <> Scc.component_of scc a);
  Alcotest.(check bool) "c trivial" true
    (Scc.is_trivial scc g (Scc.component_of scc c));
  Alcotest.(check bool) "ab not trivial" false
    (Scc.is_trivial scc g (Scc.component_of scc a));
  Alcotest.(check int) "internal edges of ab" 2
    (List.length (Scc.internal_edges scc g (Scc.component_of scc a)))

let test_scc_self_loop_not_trivial () =
  let g = Srdf.create () in
  let a = Srdf.add_actor g ~name:"a" ~duration:1.0 in
  ignore (Srdf.add_edge g ~src:a ~dst:a ~tokens:1);
  let scc = Scc.compute g in
  Alcotest.(check int) "one component" 1 (Scc.count scc);
  Alcotest.(check bool) "self loop counts as a cycle" false
    (Scc.is_trivial scc g 0)

let test_scc_chain_all_trivial () =
  let g = Srdf.create () in
  let actors =
    Array.init 5 (fun i ->
        Srdf.add_actor g ~name:(string_of_int i) ~duration:1.0)
  in
  for i = 0 to 3 do
    ignore (Srdf.add_edge g ~src:actors.(i) ~dst:actors.(i + 1) ~tokens:0)
  done;
  let scc = Scc.compute g in
  Alcotest.(check int) "five components" 5 (Scc.count scc);
  for c = 0 to 4 do
    Alcotest.(check bool) "trivial" true (Scc.is_trivial scc g c)
  done

let test_scc_reverse_topological () =
  (* Edges across components must go from higher to lower index
     (emission order of Tarjan is reverse topological). *)
  let g = Srdf.create () in
  let a = Srdf.add_actor g ~name:"a" ~duration:1.0 in
  let b = Srdf.add_actor g ~name:"b" ~duration:1.0 in
  let c = Srdf.add_actor g ~name:"c" ~duration:1.0 in
  ignore (Srdf.add_edge g ~src:a ~dst:b ~tokens:0);
  ignore (Srdf.add_edge g ~src:b ~dst:c ~tokens:0);
  let scc = Scc.compute g in
  Alcotest.(check bool) "a after b after c" true
    (Scc.component_of scc a > Scc.component_of scc b
    && Scc.component_of scc b > Scc.component_of scc c)

(* ------------------------------------------------------------------ *)
(* Howard's algorithm                                                  *)
(* ------------------------------------------------------------------ *)

let test_howard_ring () =
  let g = ring2 ~rho_a:2.0 ~rho_b:3.0 ~da:1 ~db:1 in
  match Howard.max_cycle_ratio g with
  | Analysis.Mcr r -> check_float 1e-9 "mcr" 2.5 r
  | _ -> Alcotest.fail "expected Mcr"

let test_howard_two_cycles () =
  let g = Srdf.create () in
  let a = Srdf.add_actor g ~name:"a" ~duration:2.0 in
  let b = Srdf.add_actor g ~name:"b" ~duration:3.0 in
  let c = Srdf.add_actor g ~name:"c" ~duration:10.0 in
  ignore (Srdf.add_edge g ~src:a ~dst:b ~tokens:1);
  ignore (Srdf.add_edge g ~src:b ~dst:a ~tokens:1);
  ignore (Srdf.add_edge g ~src:a ~dst:c ~tokens:1);
  ignore (Srdf.add_edge g ~src:c ~dst:a ~tokens:2);
  match Howard.max_cycle_ratio g with
  | Analysis.Mcr r -> check_float 1e-9 "mcr" 4.0 r
  | _ -> Alcotest.fail "expected Mcr"

let test_howard_classification () =
  let g = ring2 ~rho_a:1.0 ~rho_b:1.0 ~da:0 ~db:0 in
  Alcotest.(check bool) "deadlock" true
    (Howard.max_cycle_ratio g = Analysis.Deadlocked);
  let g' = Srdf.create () in
  let a = Srdf.add_actor g' ~name:"a" ~duration:1.0 in
  let b = Srdf.add_actor g' ~name:"b" ~duration:1.0 in
  ignore (Srdf.add_edge g' ~src:a ~dst:b ~tokens:3);
  Alcotest.(check bool) "acyclic" true
    (Howard.max_cycle_ratio g' = Analysis.Acyclic)

let test_howard_multiple_sccs () =
  (* Two disjoint rings: MCR is the max of the two. *)
  let g = Srdf.create () in
  let a = Srdf.add_actor g ~name:"a" ~duration:3.0 in
  let b = Srdf.add_actor g ~name:"b" ~duration:1.0 in
  ignore (Srdf.add_edge g ~src:a ~dst:a ~tokens:1);
  ignore (Srdf.add_edge g ~src:b ~dst:b ~tokens:2);
  match Howard.max_cycle_ratio g with
  | Analysis.Mcr r -> check_float 1e-9 "max over sccs" 3.0 r
  | _ -> Alcotest.fail "expected Mcr"

(* Random strongly-cyclic graph generator for the cross-validation
   property: n actors in a ring (guaranteeing liveness and strong
   connectivity) plus extra random chords. *)
let gen_random_cyclic =
  let open QCheck2.Gen in
  let* n = int_range 2 8 in
  let* durations = list_size (return n) (float_range 0.5 10.0) in
  let* chords =
    list_size (int_range 0 10)
      (triple (int_range 0 (n - 1)) (int_range 0 (n - 1)) (int_range 1 3))
  in
  let* ring_tokens = list_size (return n) (int_range 0 2) in
  return (n, durations, chords, ring_tokens)

let build_random_cyclic (n, durations, chords, ring_tokens) =
  let g = Srdf.create () in
  let actors =
    List.mapi
      (fun i d -> Srdf.add_actor g ~name:(string_of_int i) ~duration:d)
      durations
  in
  let arr = Array.of_list actors in
  List.iteri
    (fun i t ->
      (* At least one token on the ring-closing edge keeps it live. *)
      let tokens = if i = n - 1 then Int.max 1 t else t in
      ignore
        (Srdf.add_edge g ~src:arr.(i) ~dst:arr.((i + 1) mod n) ~tokens))
    ring_tokens;
  List.iter
    (fun (s, d, t) -> ignore (Srdf.add_edge g ~src:arr.(s) ~dst:arr.(d) ~tokens:t))
    chords;
  g

let prop_howard_matches_binary_search =
  QCheck2.Test.make
    ~name:"Howard and binary-search MCR agree on random graphs" ~count:200
    gen_random_cyclic
    (fun spec ->
      let g = build_random_cyclic spec in
      match (Howard.max_cycle_ratio g, Pas_oracle.max_cycle_ratio g) with
      | Analysis.Mcr h, Analysis.Mcr b ->
        Float.abs (h -. b) <= 1e-6 *. Float.max 1.0 b
      | Analysis.Deadlocked, Analysis.Deadlocked -> true
      | Analysis.Acyclic, Analysis.Acyclic -> true
      | _ -> false)

let prop_howard_is_feasibility_boundary =
  QCheck2.Test.make ~name:"Howard MCR is the PAS feasibility boundary"
    ~count:100 gen_random_cyclic
    (fun spec ->
      let g = build_random_cyclic spec in
      match Howard.max_cycle_ratio g with
      | Analysis.Mcr r when r > 0.0 ->
        Pas_oracle.pas_exists g ~period:(r *. (1.0 +. 1e-6))
        && not (Pas_oracle.pas_exists g ~period:(r *. (1.0 -. 1e-4)))
      | Analysis.Mcr _ | Analysis.Deadlocked | Analysis.Acyclic -> true)


(* ------------------------------------------------------------------ *)
(* Exact MCR: Howard's cycle confirmed by the exact Bellman–Ford       *)
(* ------------------------------------------------------------------ *)

module Rat = Exact.Rat

(* The exact ratio of a cycle given as queues, after checking that
   they close up. *)
let cycle_ratio ?rho g cycle =
  let rho v =
    match rho with
    | Some rho -> rho.(Srdf.actor_id v)
    | None -> Rat.of_float (Srdf.duration g v)
  in
  let queues = Array.of_list cycle in
  let n = Array.length queues in
  Array.iteri
    (fun i e ->
      if Srdf.edge_dst g e <> Srdf.edge_src g queues.((i + 1) mod n) then
        Alcotest.fail "cycle does not close")
    queues;
  Rat.div
    (List.fold_left (fun acc e -> Rat.add acc (rho (Srdf.edge_src g e))) Rat.zero cycle)
    (Rat.of_int (List.fold_left (fun acc e -> acc + Srdf.tokens g e) 0 cycle))

let check_rat msg want got =
  Alcotest.(check string) msg (Rat.to_string want) (Rat.to_string got)

let test_exact_mcr_not_a_float () =
  (* Duration 7 over 3 tokens: 7/3, which no float equals. *)
  let g = Srdf.create () in
  let a = Srdf.add_actor g ~name:"a" ~duration:7.0 in
  ignore (Srdf.add_edge g ~src:a ~dst:a ~tokens:3);
  match Howard.exact g with
  | `Mcr (r, cycle) ->
    check_rat "ratio" (Rat.of_ints 7 3) r;
    Alcotest.(check int) "the self-loop" 1 (List.length cycle)
  | _ -> Alcotest.fail "expected Mcr"

let test_exact_mcr_critical_cycle () =
  (* The a–c cycle (12/3 = 4) beats the a–b ring (5/2). *)
  let g = Srdf.create () in
  let a = Srdf.add_actor g ~name:"a" ~duration:2.0 in
  let b = Srdf.add_actor g ~name:"b" ~duration:3.0 in
  let c = Srdf.add_actor g ~name:"c" ~duration:10.0 in
  ignore (Srdf.add_edge g ~src:a ~dst:b ~tokens:1);
  ignore (Srdf.add_edge g ~src:b ~dst:a ~tokens:1);
  ignore (Srdf.add_edge g ~src:a ~dst:c ~tokens:1);
  ignore (Srdf.add_edge g ~src:c ~dst:a ~tokens:2);
  (match Howard.exact g with
  | `Mcr (r, cycle) ->
    check_rat "ratio" (Rat.of_int 4) r;
    check_rat "the cycle attains it" r (cycle_ratio g cycle);
    Alcotest.(check (list string)) "through a and c" [ "a"; "c" ]
      (List.sort compare
         (List.map (fun e -> Srdf.actor_name g (Srdf.edge_src g e)) cycle))
  | _ -> Alcotest.fail "expected Mcr");
  (* Exact durations that disagree with the float ones: Howard, steered
     by the floats, proposes a–c; the exact Bellman–Ford at 4 finds
     the a–b ring at (2 + 30)/2 = 16 and confirms that instead. *)
  let rho = [| Rat.of_int 2; Rat.of_int 30; Rat.of_int 10 |] in
  match Howard.exact ~rho g with
  | `Mcr (r, cycle) ->
    check_rat "heavier cycle found" (Rat.of_int 16) r;
    check_rat "and returned" r (cycle_ratio ~rho g cycle)
  | _ -> Alcotest.fail "expected Mcr"

let test_exact_mcr_classification () =
  Alcotest.(check bool) "deadlock" true
    (Howard.exact (ring2 ~rho_a:1.0 ~rho_b:1.0 ~da:0 ~db:0) = `Deadlocked);
  let g = Srdf.create () in
  let a = Srdf.add_actor g ~name:"a" ~duration:1.0 in
  let b = Srdf.add_actor g ~name:"b" ~duration:1.0 in
  ignore (Srdf.add_edge g ~src:a ~dst:b ~tokens:3);
  Alcotest.(check bool) "acyclic" true (Howard.exact g = `Acyclic);
  Alcotest.check_raises "one duration per actor"
    (Invalid_argument "Howard.exact: one duration per actor expected")
    (fun () -> ignore (Howard.exact ~rho:[| Rat.one |] g))

let prop_exact_mcr_matches_howard_and_karp =
  QCheck2.Test.make
    ~name:"exact MCR matches Howard and Karp on random graphs" ~count:200
    gen_random_cyclic
    (fun spec ->
      let g = build_random_cyclic spec in
      match (Howard.exact g, Howard.max_cycle_ratio g, Karp.max_cycle_ratio g) with
      | `Mcr (r, cycle), Analysis.Mcr h, Analysis.Mcr k ->
        let x = Rat.to_float r in
        let close y = Float.abs (y -. x) <= 1e-9 *. Float.max 1.0 x in
        close h && close k && Rat.equal r (cycle_ratio g cycle)
        (* and the float oracle flips around it *)
        && Pas_oracle.pas_exists g ~period:(x *. (1.0 +. 1e-6))
        && not (Pas_oracle.pas_exists g ~period:(x *. (1.0 -. 1e-4)))
      | `Deadlocked, Analysis.Deadlocked, Analysis.Deadlocked -> true
      | `Acyclic, Analysis.Acyclic, Analysis.Acyclic -> true
      | _ -> false)


(* ------------------------------------------------------------------ *)
(* Multi-rate SDF                                                      *)
(* ------------------------------------------------------------------ *)

(* An SDF graph is a one-phase CSDF graph: one duration, one rate per
   endpoint. *)
module Csdf = Dataflow.Csdf

let test_sdf_repetition_vector () =
  let t = Csdf.create () in
  let a = Csdf.add_actor t ~name:"a" ~durations:[| 1.0 |] in
  let b = Csdf.add_actor t ~name:"b" ~durations:[| 1.0 |] in
  ignore
    (Csdf.add_channel t ~src:a ~production:[| 2 |] ~dst:b
       ~consumption:[| 3 |] ());
  match Csdf.repetition_vector t with
  | Error e -> Alcotest.fail e
  | Ok q ->
    Alcotest.(check int) "q(a)" 3 (q a);
    Alcotest.(check int) "q(b)" 2 (q b)

let test_sdf_inconsistent () =
  let t = Csdf.create () in
  let a = Csdf.add_actor t ~name:"a" ~durations:[| 1.0 |] in
  let b = Csdf.add_actor t ~name:"b" ~durations:[| 1.0 |] in
  let c = Csdf.add_actor t ~name:"c" ~durations:[| 1.0 |] in
  ignore
    (Csdf.add_channel t ~src:a ~production:[| 1 |] ~dst:b
       ~consumption:[| 1 |] ());
  ignore
    (Csdf.add_channel t ~src:b ~production:[| 1 |] ~dst:c
       ~consumption:[| 1 |] ());
  ignore
    (Csdf.add_channel t ~src:c ~production:[| 2 |] ~dst:a
       ~consumption:[| 1 |] ());
  match Csdf.repetition_vector t with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected inconsistency"

let test_sdf_components_independent () =
  (* Two disconnected pairs get independent minimal vectors. *)
  let t = Csdf.create () in
  let a = Csdf.add_actor t ~name:"a" ~durations:[| 1.0 |] in
  let b = Csdf.add_actor t ~name:"b" ~durations:[| 1.0 |] in
  let c = Csdf.add_actor t ~name:"c" ~durations:[| 1.0 |] in
  let d = Csdf.add_actor t ~name:"d" ~durations:[| 1.0 |] in
  ignore
    (Csdf.add_channel t ~src:a ~production:[| 4 |] ~dst:b
       ~consumption:[| 6 |] ());
  ignore
    (Csdf.add_channel t ~src:c ~production:[| 1 |] ~dst:d
       ~consumption:[| 5 |] ());
  match Csdf.repetition_vector t with
  | Error e -> Alcotest.fail e
  | Ok q ->
    Alcotest.(check (list int)) "vector" [ 3; 2; 5; 1 ] [ q a; q b; q c; q d ]

let test_sdf_single_rate_expansion_identity () =
  (* A single-rate SDF ring expands to an isomorphic SRDF ring. *)
  let t = Csdf.create () in
  let a = Csdf.add_actor t ~name:"a" ~durations:[| 2.0 |] in
  let b = Csdf.add_actor t ~name:"b" ~durations:[| 3.0 |] in
  ignore
    (Csdf.add_channel t ~src:a ~production:[| 1 |] ~dst:b
       ~consumption:[| 1 |] ());
  ignore
    (Csdf.add_channel t ~src:b ~production:[| 1 |] ~dst:a ~consumption:[| 1 |]
       ~initial_tokens:1 ());
  match Csdf.expand t with
  | Error e -> Alcotest.fail e
  | Ok { srdf; repetitions; _ } ->
    Alcotest.(check int) "q(a)" 1 (repetitions a);
    Alcotest.(check int) "actors" 2 (Srdf.num_actors srdf);
    Alcotest.(check int) "edges" 2 (Srdf.num_edges srdf);
    (match Pas_oracle.max_cycle_ratio srdf with
    | Analysis.Mcr r -> check_float 1e-6 "period" 5.0 r
    | _ -> Alcotest.fail "expected Mcr")

let test_sdf_multirate_period () =
  (* a -(2:1)-> b with a return channel b -(1:2)-> a holding 2 tokens:
     q = (1, 2); expansion cycles a1->b_l->a1 have ratio 2. *)
  let t = Csdf.create () in
  let a = Csdf.add_actor t ~name:"a" ~durations:[| 1.0 |] in
  let b = Csdf.add_actor t ~name:"b" ~durations:[| 1.0 |] in
  ignore
    (Csdf.add_channel t ~src:a ~production:[| 2 |] ~dst:b
       ~consumption:[| 1 |] ());
  ignore
    (Csdf.add_channel t ~src:b ~production:[| 1 |] ~dst:a ~consumption:[| 2 |]
       ~initial_tokens:2 ());
  (match Csdf.iteration_period t with
  | Ok r -> check_float 1e-9 "iteration period" 2.0 r
  | Error e -> Alcotest.fail e);
  (* One token fewer on the feedback: the graph deadlocks. *)
  let t' = Csdf.create () in
  let a' = Csdf.add_actor t' ~name:"a" ~durations:[| 1.0 |] in
  let b' = Csdf.add_actor t' ~name:"b" ~durations:[| 1.0 |] in
  ignore
    (Csdf.add_channel t' ~src:a' ~production:[| 2 |] ~dst:b'
       ~consumption:[| 1 |] ());
  ignore
    (Csdf.add_channel t' ~src:b' ~production:[| 1 |] ~dst:a'
       ~consumption:[| 2 |]
       ~initial_tokens:1 ());
  match Csdf.iteration_period t' with
  | Error _ -> ()
  | Ok r -> Alcotest.failf "expected deadlock, got period %f" r

let test_sdf_serialize_slows () =
  (* Serialising the two copies of b forbids their overlap, so the
     binding cycle becomes a1 -> b1 -> b2 -> a1 with one token:
     1 + 3 + 3 = 7, up from the concurrent period of 4. *)
  let build () =
    let t = Csdf.create () in
    let a = Csdf.add_actor t ~name:"a" ~durations:[| 1.0 |] in
    let b = Csdf.add_actor t ~name:"b" ~durations:[| 3.0 |] in
    ignore
      (Csdf.add_channel t ~src:a ~production:[| 2 |] ~dst:b
         ~consumption:[| 1 |] ());
    ignore
      (Csdf.add_channel t ~src:b ~production:[| 1 |] ~dst:a ~consumption:[| 2 |]
         ~initial_tokens:2 ());
    t
  in
  (match Csdf.iteration_period ~serialize:false (build ()) with
  | Ok r -> check_float 1e-9 "concurrent" 4.0 r
  | Error e -> Alcotest.fail e);
  match Csdf.iteration_period ~serialize:true (build ()) with
  | Ok r -> check_float 1e-9 "serialized" 7.0 r
  | Error e -> Alcotest.fail e

let test_sdf_expansion_copy_bounds () =
  let t = Csdf.create () in
  let a = Csdf.add_actor t ~name:"a" ~durations:[| 1.0 |] in
  let b = Csdf.add_actor t ~name:"b" ~durations:[| 1.0 |] in
  ignore
    (Csdf.add_channel t ~src:a ~production:[| 3 |] ~dst:b
       ~consumption:[| 1 |] ());
  ignore
    (Csdf.add_channel t ~src:b ~production:[| 1 |] ~dst:a ~consumption:[| 3 |]
       ~initial_tokens:3 ());
  match Csdf.expand t with
  | Error e -> Alcotest.fail e
  | Ok { firing; repetitions; srdf } ->
    Alcotest.(check int) "q(b)" 3 (repetitions b);
    Alcotest.(check string) "copy name" "b#2.1"
      (Srdf.actor_name srdf (firing b 2));
    Alcotest.(check bool) "range checked" true
      (match firing b 4 with
      | exception Invalid_argument _ -> true
      | _ -> false)

let rec gcd a b = if b = 0 then a else gcd b (a mod b)

let prop_sdf_expansion_period_matches_self_timed =
  (* The expansion's MCR equals the measured self-timed iteration
     period of the expansion (same property as for SRDF, but exercised
     through the multi-rate construction). *)
  QCheck2.Test.make
    ~name:"SDF expansion period matches self-timed execution" ~count:50
    QCheck2.Gen.(
      tup4 (int_range 1 3) (int_range 1 3) (float_range 0.5 4.0)
        (float_range 0.5 4.0))
    (fun (p, c, da, db) ->
      let t = Csdf.create () in
      let a = Csdf.add_actor t ~name:"a" ~durations:[| da |] in
      let b = Csdf.add_actor t ~name:"b" ~durations:[| db |] in
      ignore
        (Csdf.add_channel t ~src:a ~production:[| p |] ~dst:b
           ~consumption:[| c |] ());
      (* Feedback sized to one full iteration's tokens: always live. *)
      let g = gcd p c in
      let qa = c / g and _qb = p / g in
      ignore
        (Csdf.add_channel t ~src:b ~production:[| c |] ~dst:a
           ~consumption:[| p |]
           ~initial_tokens:(p * qa) ());
      match Csdf.expand t with
      | Error _ -> false
      | Ok { srdf; _ } -> begin
        match
          (Pas_oracle.self_timed ~iterations:400 srdf, Howard.max_cycle_ratio srdf)
        with
        | Ok { measured_period; _ }, Analysis.Mcr r ->
          Float.abs (measured_period -. r) <= 0.08 *. Float.max 1.0 r
        | _ -> false
      end)



(* ------------------------------------------------------------------ *)
(* Cyclo-static dataflow                                               *)
(* ------------------------------------------------------------------ *)

let test_csdf_phases_and_vector () =
  let t = Csdf.create () in
  let a = Csdf.add_actor t ~name:"a" ~durations:[| 2.0; 1.0 |] in
  let b = Csdf.add_actor t ~name:"b" ~durations:[| 5.0 |] in
  ignore
    (Csdf.add_channel t ~src:a ~production:[| 1; 0 |] ~dst:b
       ~consumption:[| 1 |] ());
  Alcotest.(check int) "phases a" 2 (Csdf.phases t a);
  Alcotest.(check int) "phases b" 1 (Csdf.phases t b);
  match Csdf.repetition_vector t with
  | Error e -> Alcotest.fail e
  | Ok q ->
    (* One cycle of a (2 firings) produces 1 token = 1 firing of b. *)
    Alcotest.(check int) "q(a)" 1 (q a);
    Alcotest.(check int) "q(b)" 1 (q b)

let test_csdf_updown_period () =
  (* a = [2;1] producing on phase 1 only, b = [5]; feedback b -> a with
     one initial token consumed by a's phase 1.  Serialized cycles:
     a#1 -> a#2 -> a#1 (ratio 3) and a#1 -> b#1 -> a#1 (2+5 over one
     token = 7): the period is 7. *)
  let t = Csdf.create () in
  let a = Csdf.add_actor t ~name:"a" ~durations:[| 2.0; 1.0 |] in
  let b = Csdf.add_actor t ~name:"b" ~durations:[| 5.0 |] in
  ignore
    (Csdf.add_channel t ~src:a ~production:[| 1; 0 |] ~dst:b
       ~consumption:[| 1 |] ());
  ignore
    (Csdf.add_channel t ~src:b ~production:[| 1 |] ~dst:a
       ~consumption:[| 1; 0 |] ~initial_tokens:1 ());
  match Csdf.iteration_period ~serialize:true t with
  | Ok r -> check_float 1e-9 "period" 7.0 r
  | Error e -> Alcotest.fail e

let test_csdf_zero_rate_phase_dependencies () =
  (* The zero-production phase must not appear as a producer: b#1's
     only dependency is a#1 (phase 1). *)
  let t = Csdf.create () in
  let a = Csdf.add_actor t ~name:"a" ~durations:[| 1.0; 1.0 |] in
  let b = Csdf.add_actor t ~name:"b" ~durations:[| 1.0 |] in
  ignore
    (Csdf.add_channel t ~src:a ~production:[| 1; 0 |] ~dst:b
       ~consumption:[| 1 |] ());
  match Csdf.expand t with
  | Error e -> Alcotest.fail e
  | Ok { srdf; firing; _ } ->
    let b1 = firing b 1 in
    let producers =
      List.map (Srdf.edge_src srdf) (Srdf.in_edges srdf b1)
    in
    Alcotest.(check bool) "only a#1 feeds b#1" true
      (producers = [ firing a 1 ])

let test_csdf_validation () =
  let t = Csdf.create () in
  Alcotest.(check bool) "empty phases rejected" true
    (match Csdf.add_actor t ~name:"x" ~durations:[||] with
    | exception Invalid_argument _ -> true
    | _ -> false);
  let a = Csdf.add_actor t ~name:"a" ~durations:[| 1.0 |] in
  let b = Csdf.add_actor t ~name:"b" ~durations:[| 1.0; 2.0 |] in
  Alcotest.(check bool) "wrong production length" true
    (match
       Csdf.add_channel t ~src:a ~production:[| 1; 1 |] ~dst:b
         ~consumption:[| 1; 1 |] ()
     with
    | exception Invalid_argument _ -> true
    | _ -> false);
  Alcotest.(check bool) "all-zero rates rejected" true
    (match
       Csdf.add_channel t ~src:a ~production:[| 0 |] ~dst:b
         ~consumption:[| 1; 1 |] ()
     with
    | exception Invalid_argument _ -> true
    | _ -> false)

let prop_csdf_period_matches_self_timed =
  QCheck2.Test.make
    ~name:"CSDF expansion period matches self-timed execution" ~count:40
    QCheck2.Gen.(
      tup4 (int_range 0 2) (int_range 1 2) (float_range 0.5 3.0)
        (float_range 0.5 3.0))
    (fun (p2, c1, da, db) ->
      (* a: two phases producing [1; p2]; b: one phase consuming c1;
         feedback holding one full iteration of tokens. *)
      let t = Csdf.create () in
      let a = Csdf.add_actor t ~name:"a" ~durations:[| da; da /. 2.0 |] in
      let b = Csdf.add_actor t ~name:"b" ~durations:[| db |] in
      let prod = [| 1; p2 |] in
      let total_p = 1 + p2 in
      let g = gcd total_p c1 in
      let qa = c1 / g in
      let feedback = total_p * qa in
      ignore
        (Csdf.add_channel t ~src:a ~production:prod ~dst:b
           ~consumption:[| c1 |] ());
      ignore
        (Csdf.add_channel t ~src:b ~production:[| c1 |] ~dst:a
           ~consumption:prod ~initial_tokens:feedback ());
      match Csdf.expand ~serialize:true t with
      | Error _ -> false
      | Ok { srdf; _ } -> begin
        match
          ( Pas_oracle.self_timed ~iterations:400 srdf,
            Dataflow.Howard.max_cycle_ratio srdf )
        with
        | Ok { measured_period; _ }, Analysis.Mcr r ->
          Float.abs (measured_period -. r) <= 0.08 *. Float.max 1.0 r
        | _ -> false
      end)



(* ------------------------------------------------------------------ *)
(* Karp's algorithm                                                    *)
(* ------------------------------------------------------------------ *)

let test_karp_mcm_simple () =
  (* Triangle with weights 3, 1, 2: mean 2.  Plus a lighter 2-cycle. *)
  let edges = [ (0, 1, 3.0); (1, 2, 1.0); (2, 0, 2.0); (0, 1, 1.0); (1, 0, 1.0) ] in
  match Karp.max_cycle_mean ~num_vertices:3 ~edges with
  | Some m -> check_float 1e-9 "mcm" 2.0 m
  | None -> Alcotest.fail "expected a cycle"

let test_karp_mcm_self_loop () =
  match Karp.max_cycle_mean ~num_vertices:1 ~edges:[ (0, 0, 5.0) ] with
  | Some m -> check_float 1e-9 "self loop" 5.0 m
  | None -> Alcotest.fail "expected a cycle"

let test_karp_mcm_acyclic () =
  Alcotest.(check bool) "acyclic" true
    (Karp.max_cycle_mean ~num_vertices:3 ~edges:[ (0, 1, 1.0); (1, 2, 1.0) ]
    = None)

let test_karp_mcm_disconnected () =
  (* Two separate loops: take the larger mean. *)
  match
    Karp.max_cycle_mean ~num_vertices:4
      ~edges:[ (0, 1, 1.0); (1, 0, 1.0); (2, 3, 4.0); (3, 2, 2.0) ]
  with
  | Some m -> check_float 1e-9 "max of sccs" 3.0 m
  | None -> Alcotest.fail "expected cycles"

let test_karp_mcr_ring () =
  let g = ring2 ~rho_a:2.0 ~rho_b:3.0 ~da:1 ~db:1 in
  match Karp.max_cycle_ratio g with
  | Analysis.Mcr r -> check_float 1e-9 "ratio" 2.5 r
  | _ -> Alcotest.fail "expected Mcr"

let test_karp_mcr_multi_token () =
  (* Self-loop with 3 tokens and duration 7: ratio 7/3. *)
  let g = Srdf.create () in
  let a = Srdf.add_actor g ~name:"a" ~duration:7.0 in
  ignore (Srdf.add_edge g ~src:a ~dst:a ~tokens:3);
  match Karp.max_cycle_ratio g with
  | Analysis.Mcr r -> check_float 1e-9 "ratio" (7.0 /. 3.0) r
  | _ -> Alcotest.fail "expected Mcr"

let test_karp_mcr_zero_token_contraction () =
  (* a → b → c → a where only c→a carries a token: the zero path a→b→c
     is contracted; ratio = (2+3+4)/1. *)
  let g = Srdf.create () in
  let a = Srdf.add_actor g ~name:"a" ~duration:2.0 in
  let b = Srdf.add_actor g ~name:"b" ~duration:3.0 in
  let c = Srdf.add_actor g ~name:"c" ~duration:4.0 in
  ignore (Srdf.add_edge g ~src:a ~dst:b ~tokens:0);
  ignore (Srdf.add_edge g ~src:b ~dst:c ~tokens:0);
  ignore (Srdf.add_edge g ~src:c ~dst:a ~tokens:1);
  match Karp.max_cycle_ratio g with
  | Analysis.Mcr r -> check_float 1e-9 "ratio" 9.0 r
  | _ -> Alcotest.fail "expected Mcr"

let test_karp_mcr_classification () =
  let g = ring2 ~rho_a:1.0 ~rho_b:1.0 ~da:0 ~db:0 in
  Alcotest.(check bool) "deadlock" true
    (Karp.max_cycle_ratio g = Analysis.Deadlocked)

let prop_karp_matches_howard_and_bisect =
  QCheck2.Test.make
    ~name:"Karp, Howard and binary search agree on random graphs" ~count:150
    gen_random_cyclic
    (fun spec ->
      let g = build_random_cyclic spec in
      match
        ( Karp.max_cycle_ratio g,
          Howard.max_cycle_ratio g,
          Pas_oracle.max_cycle_ratio g )
      with
      | Analysis.Mcr k, Analysis.Mcr h, Analysis.Mcr b ->
        Float.abs (k -. h) <= 1e-6 *. Float.max 1.0 b
        && Float.abs (k -. b) <= 1e-6 *. Float.max 1.0 b
      | Analysis.Deadlocked, Analysis.Deadlocked, Analysis.Deadlocked -> true
      | Analysis.Acyclic, Analysis.Acyclic, Analysis.Acyclic -> true
      | _ -> false)



(* ------------------------------------------------------------------ *)
(* SDF/CSDF text format                                                *)
(* ------------------------------------------------------------------ *)

module Sdf_parse = Dataflow.Sdf_parse

let test_sdf_parse_basic () =
  let t, find =
    Sdf_parse.of_string
      "# example\nactor a durations 2\nactor b durations 1,3\nchannel a 2 -> b 1,1 initial 1\n"
  in
  Alcotest.(check int) "actors" 2 (Csdf.num_actors t);
  Alcotest.(check int) "channels" 1 (Csdf.num_channels t);
  Alcotest.(check int) "phases of b" 2 (Csdf.phases t (find "b"));
  match Csdf.repetition_vector t with
  | Error e -> Alcotest.fail e
  | Ok q ->
    (* a produces 2 per firing; one b-cycle consumes 2. *)
    Alcotest.(check int) "q(a)" 1 (q (find "a"));
    Alcotest.(check int) "q(b)" 1 (q (find "b"))

let expect_sdf_error ?line text =
  match Sdf_parse.of_string text with
  | exception Sdf_parse.Parse_error (l, _) -> begin
    match line with
    | None -> ()
    | Some expected -> Alcotest.(check int) "line" expected l
  end
  | _ -> Alcotest.fail "expected a parse error"

let test_sdf_parse_errors () =
  expect_sdf_error ~line:1 "actor a";
  expect_sdf_error ~line:1 "actor a durations x";
  expect_sdf_error ~line:2 "actor a durations 1\nactor a durations 1";
  expect_sdf_error ~line:1 "channel a 1 -> b 1";
  expect_sdf_error ~line:2 "actor a durations 1\nchannel a 1 -> b 1";
  expect_sdf_error ~line:2
    "actor a durations 1\nchannel a 1,2 -> a 1" (* wrong rate arity *);
  expect_sdf_error ~line:1 "frobnicate"

let test_sdf_parse_lookup () =
  let _, find = Sdf_parse.of_string "actor x durations 1" in
  Alcotest.check_raises "unknown" Not_found (fun () -> ignore (find "y"))

let prop_sdf_parse_total =
  (* Arbitrary byte strings (not just printable text) must either parse
     or raise Parse_error with a 1-based line — never escape with
     another exception. *)
  QCheck2.Test.make ~name:"Sdf_parse total on arbitrary bytes" ~count:500
    QCheck2.Gen.string (fun junk ->
      match Sdf_parse.of_string junk with
      | _ -> true
      | exception Sdf_parse.Parse_error (line, _) -> line >= 1)

let prop_sdf_parse_total_mutated =
  (* Valid descriptions with junk spliced anywhere exercise the deeper
     branches (rate lists, channel endpoints) of the parser. *)
  QCheck2.Test.make ~name:"Sdf_parse total on mutated descriptions"
    ~count:300
    QCheck2.Gen.(pair nat string)
    (fun (pos, junk) ->
      let base =
        "actor a durations 2\nactor b durations 1,3\n\
         channel a 2 -> b 1,1 initial 1\n"
      in
      let pos = pos mod (String.length base + 1) in
      let mutated =
        String.sub base 0 pos ^ junk
        ^ String.sub base pos (String.length base - pos)
      in
      match Sdf_parse.of_string mutated with
      | _ -> true
      | exception Sdf_parse.Parse_error (line, _) -> line >= 1)

let prop_sdf_parse_result_byte_mutations =
  (* The total entry point under byte mutation: flip up to 8 bytes of a
     valid description to arbitrary values — every outcome is Ok or a
     structured Error, and no exception of any kind escapes.  (This is
     stronger than the properties above, which only promise that the
     escaping exception is Parse_error.) *)
  QCheck2.Test.make ~name:"Sdf_parse.of_string_result total under byte flips"
    ~count:500
    QCheck2.Gen.(list_size (int_bound 8) (pair nat (int_bound 255)))
    (fun flips ->
      let base =
        "actor a durations 2\nactor b durations 1,3\n\
         channel a 2 -> b 1,1 initial 1\n"
      in
      let bytes = Bytes.of_string base in
      List.iter
        (fun (pos, byte) ->
          Bytes.set bytes (pos mod Bytes.length bytes) (Char.chr byte))
        flips;
      match Sdf_parse.of_string_result (Bytes.to_string bytes) with
      | Ok _ -> true
      | Error (line, msg) -> line >= 0 && String.length msg > 0
      | exception _ -> false)

(* ------------------------------------------------------------------ *)
(* Critical cycles                                                     *)
(* ------------------------------------------------------------------ *)

let test_critical_cycle_ring () =
  let g = ring2 ~rho_a:2.0 ~rho_b:3.0 ~da:1 ~db:1 in
  match Howard.critical_cycle g with
  | None -> Alcotest.fail "expected a cycle"
  | Some (r, actors) ->
    check_float 1e-9 "ratio" 2.5 r;
    Alcotest.(check int) "both actors" 2 (List.length actors)

let test_critical_cycle_selects_worst () =
  (* Two nested cycles (ratios 2.5 and 4): the returned cycle is the
     a–c one. *)
  let g = Srdf.create () in
  let a = Srdf.add_actor g ~name:"a" ~duration:2.0 in
  let b = Srdf.add_actor g ~name:"b" ~duration:3.0 in
  let c = Srdf.add_actor g ~name:"c" ~duration:10.0 in
  ignore (Srdf.add_edge g ~src:a ~dst:b ~tokens:1);
  ignore (Srdf.add_edge g ~src:b ~dst:a ~tokens:1);
  ignore (Srdf.add_edge g ~src:a ~dst:c ~tokens:1);
  ignore (Srdf.add_edge g ~src:c ~dst:a ~tokens:2);
  match Howard.critical_cycle g with
  | None -> Alcotest.fail "expected a cycle"
  | Some (r, actors) ->
    check_float 1e-9 "ratio" 4.0 r;
    let names = List.sort compare (List.map (Srdf.actor_name g) actors) in
    Alcotest.(check (list string)) "a and c" [ "a"; "c" ] names;
    Alcotest.(check bool) "b not on it" false (List.mem b actors)

let prop_critical_cycle_ratio_consistent =
  (* The returned actors really form a cycle of the returned ratio:
     walking edges between consecutive actors (choosing, among parallel
     edges, the fewest tokens) reproduces Σρ/Σδ = r. *)
  QCheck2.Test.make ~name:"critical cycle reproduces its ratio" ~count:100
    gen_random_cyclic
    (fun spec ->
      let g = build_random_cyclic spec in
      match Howard.critical_cycle g with
      | None -> true
      | Some (r, actors) ->
        let arr = Array.of_list actors in
        let n = Array.length arr in
        let sum_rho = ref 0.0 and sum_tok = ref 0 in
        let ok = ref true in
        for i = 0 to n - 1 do
          let src = arr.(i) and dst = arr.((i + 1) mod n) in
          sum_rho := !sum_rho +. Srdf.duration g src;
          (* fewest-token edge src → dst *)
          let best = ref None in
          List.iter
            (fun e ->
              if Srdf.edge_src g e = src && Srdf.edge_dst g e = dst then
                match !best with
                | Some t when t <= Srdf.tokens g e -> ()
                | Some _ | None -> best := Some (Srdf.tokens g e))
            (Srdf.edges g);
          match !best with
          | None -> ok := false
          | Some t -> sum_tok := !sum_tok + t
        done;
        !ok
        && Float.abs ((!sum_rho /. float_of_int !sum_tok) -. r)
           <= 1e-6 *. Float.max 1.0 r)

let test_check_schedule_reports_violations () =
  let g = ring2 ~rho_a:2.0 ~rho_b:3.0 ~da:1 ~db:1 in
  (* All-zero start times violate the queues whose slack is negative. *)
  let bad = [| 0.0; 0.0 |] in
  let violated = Pas_oracle.check_schedule g ~period:2.5 bad in
  Alcotest.(check bool) "some queue violated" true (violated <> []);
  (* The earliest PAS has no violations (already covered), and a
     shifted copy of it also passes (start times are relative). *)
  match Pas_oracle.pas_start_times g ~period:2.5 with
  | None -> Alcotest.fail "expected schedule"
  | Some s ->
    let shifted = Array.map (fun x -> x +. 17.0) s in
    Alcotest.(check (list int)) "shift invariant" []
      (List.map Srdf.edge_id (Pas_oracle.check_schedule g ~period:2.5 shifted))


let () =
  Alcotest.run "dataflow"
    [
      ( "srdf",
        [
          Alcotest.test_case "build" `Quick test_srdf_build;
          Alcotest.test_case "validation" `Quick test_srdf_validation;
          Alcotest.test_case "find" `Quick test_srdf_find;
          Alcotest.test_case "connectivity" `Quick
            test_srdf_not_strongly_connected;
        ] );
      ( "pas",
        [
          Alcotest.test_case "ring feasibility" `Quick test_pas_ring;
          Alcotest.test_case "start times valid" `Quick
            test_pas_start_times_valid;
          Alcotest.test_case "zero-token cycle" `Quick
            test_pas_zero_token_cycle;
          Alcotest.test_case "invalid period" `Quick test_pas_invalid_period;
          Alcotest.test_case "token override" `Quick test_pas_token_override;
        ] );
      ( "mcr",
        [
          Alcotest.test_case "ring" `Quick test_mcr_ring;
          Alcotest.test_case "self loop" `Quick test_mcr_self_loop;
          Alcotest.test_case "two cycles" `Quick test_mcr_two_cycles;
          Alcotest.test_case "acyclic" `Quick test_mcr_acyclic;
          Alcotest.test_case "deadlock" `Quick test_mcr_deadlock;
          Alcotest.test_case "boundary" `Quick test_mcr_matches_pas_boundary;
        ] );
      ( "self-timed",
        [
          Alcotest.test_case "period" `Quick test_self_timed_period;
          Alcotest.test_case "monotone starts" `Quick
            test_self_timed_monotone_starts;
          Alcotest.test_case "deadlock" `Quick test_self_timed_deadlock;
          Alcotest.test_case "faster than PAS" `Quick
            test_self_timed_faster_than_pas;
        ] );
      ( "scc",
        [
          Alcotest.test_case "ring plus tail" `Quick test_scc_ring_plus_tail;
          Alcotest.test_case "self loop" `Quick test_scc_self_loop_not_trivial;
          Alcotest.test_case "chain" `Quick test_scc_chain_all_trivial;
          Alcotest.test_case "reverse topological" `Quick
            test_scc_reverse_topological;
        ] );
      ( "sdf",
        [
          Alcotest.test_case "repetition vector" `Quick
            test_sdf_repetition_vector;
          Alcotest.test_case "inconsistent" `Quick test_sdf_inconsistent;
          Alcotest.test_case "components" `Quick
            test_sdf_components_independent;
          Alcotest.test_case "single-rate identity" `Quick
            test_sdf_single_rate_expansion_identity;
          Alcotest.test_case "multi-rate period" `Quick
            test_sdf_multirate_period;
          Alcotest.test_case "serialize" `Quick test_sdf_serialize_slows;
          Alcotest.test_case "copy bounds" `Quick
            test_sdf_expansion_copy_bounds;
        ] );
      ( "csdf",
        [
          Alcotest.test_case "phases and vector" `Quick
            test_csdf_phases_and_vector;
          Alcotest.test_case "up/down period" `Quick test_csdf_updown_period;
          Alcotest.test_case "zero-rate phases" `Quick
            test_csdf_zero_rate_phase_dependencies;
          Alcotest.test_case "validation" `Quick test_csdf_validation;
        ] );
      ( "howard",
        [
          Alcotest.test_case "ring" `Quick test_howard_ring;
          Alcotest.test_case "two cycles" `Quick test_howard_two_cycles;
          Alcotest.test_case "classification" `Quick
            test_howard_classification;
          Alcotest.test_case "multiple sccs" `Quick test_howard_multiple_sccs;
        ] );
      ( "exact-mcr",
        [
          Alcotest.test_case "not a float" `Quick test_exact_mcr_not_a_float;
          Alcotest.test_case "critical cycle" `Quick
            test_exact_mcr_critical_cycle;
          Alcotest.test_case "classification" `Quick
            test_exact_mcr_classification;
          QCheck_alcotest.to_alcotest prop_exact_mcr_matches_howard_and_karp;
        ] );
      ( "sdf-parse",
        [
          Alcotest.test_case "basic" `Quick test_sdf_parse_basic;
          Alcotest.test_case "errors" `Quick test_sdf_parse_errors;
          Alcotest.test_case "lookup" `Quick test_sdf_parse_lookup;
          QCheck_alcotest.to_alcotest prop_sdf_parse_total;
          QCheck_alcotest.to_alcotest prop_sdf_parse_total_mutated;
          QCheck_alcotest.to_alcotest prop_sdf_parse_result_byte_mutations;
        ] );
      ( "critical-cycle",
        [
          Alcotest.test_case "ring" `Quick test_critical_cycle_ring;
          Alcotest.test_case "selects worst" `Quick
            test_critical_cycle_selects_worst;
          Alcotest.test_case "check_schedule violations" `Quick
            test_check_schedule_reports_violations;
        ] );
      ( "karp",
        [
          Alcotest.test_case "mcm simple" `Quick test_karp_mcm_simple;
          Alcotest.test_case "mcm self loop" `Quick test_karp_mcm_self_loop;
          Alcotest.test_case "mcm acyclic" `Quick test_karp_mcm_acyclic;
          Alcotest.test_case "mcm disconnected" `Quick
            test_karp_mcm_disconnected;
          Alcotest.test_case "mcr ring" `Quick test_karp_mcr_ring;
          Alcotest.test_case "mcr multi token" `Quick
            test_karp_mcr_multi_token;
          Alcotest.test_case "mcr contraction" `Quick
            test_karp_mcr_zero_token_contraction;
          Alcotest.test_case "mcr classification" `Quick
            test_karp_mcr_classification;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_monotone_duration;
            prop_monotone_tokens;
            prop_self_timed_matches_mcr;
            prop_howard_matches_binary_search;
            prop_howard_is_feasibility_boundary;
            prop_sdf_expansion_period_matches_self_timed;
            prop_csdf_period_matches_self_timed;
            prop_karp_matches_howard_and_bisect;
            prop_critical_cycle_ratio_consistent;
          ] );
    ]
