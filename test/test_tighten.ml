(* Tests for simulator-in-the-loop buffer tightening and the MPS/LP
   exchange codec.

   The tightening oracle (docs/tightening.md): every tightened mapping
   must (a) re-simulate at a steady period within the differential
   threshold of its analytic baseline, (b) never drop a capacity below
   the exact SRDF lower bound max(1, ι), and (c) be bit-identical
   across pool sizes and across kill+resume.  The codec oracle
   (docs/formats.md): parse after export is byte-identical on
   re-export, and the parsers are total — mutated bytes yield
   [Error _], never an exception. *)

module Config = Taskgraph.Config
module Sim = Tdm_sim.Sim
module Mapping = Budgetbuf.Mapping
module Lpfile = Conic.Lpfile
module Journal = Durable.Journal

(* ------------------------------------------------------------------ *)
(* Tightening: the 150-workload oracle battery                         *)
(* ------------------------------------------------------------------ *)

(* Mirrors the engine's differential feasibility threshold: the
   candidate must match the analytic baseline's measured period up to
   rounding noise (the measured period overshoots µ by O(1/n) startup
   bias, so µ alone is not the right yardstick at finite horizons). *)
let threshold mu = (mu *. (1.0 +. 1e-9)) +. 1e-12

(* Seeds 1–150 are random chains, whose non-integral WCETs leave every
   probe to the simulator; seeds 151–190 are integral chains (some on
   shared processors), split-joins, meshes, trees and rings, where the
   cycle bound decides most capacity-1 probes. *)
let workload seed =
  if seed <= 150 then
    let rng = Workloads.Rng.create (Int64.of_int seed) in
    Workloads.Gen.random_chain rng ~n:(2 + (seed mod 4)) ()
  else
    let k = seed - 151 in
    let wcet = float_of_int (1 + (k mod 3)) in
    let replenishment = float_of_int (20 + (10 * (k mod 4))) in
    let period = 10.0 *. wcet in
    let module Gen = Workloads.Gen in
    match k mod 6 with
    | 0 -> Gen.chain ~n:(2 + (k mod 5)) ~replenishment ~wcet ~period ()
    | 1 ->
      Gen.chain ~n:(2 + (k mod 3)) ~shared_procs:1 ~replenishment ~wcet
        ~period ()
    | 2 ->
      Gen.split_join ~branches:(1 + (k mod 4)) ~replenishment ~wcet ~period ()
    | 3 ->
      Gen.mesh ~rows:2 ~cols:(1 + (k mod 3)) ~replenishment ~wcet ~period ()
    | 4 ->
      Gen.binary_tree ~depth:(1 + (k mod 2)) ~replenishment ~wcet ~period ()
    | _ ->
      Gen.ring ~n:(2 + (k mod 3)) ~initial:(1 + (k mod 2)) ~replenishment ~wcet
        ~period ()

let solve_exn cfg =
  match Mapping.solve cfg with
  | Ok r -> r
  | Error e -> Alcotest.failf "solve failed: %s" (Mapping.label e)

let run_exn ?pool ?journal cfg mapped =
  match Tighten.run ?pool ?journal cfg mapped with
  | Ok t -> t
  | Error msg -> Alcotest.failf "tighten failed: %s" msg

let sim_exn cfg mapped =
  match Sim.run cfg mapped ~iterations:64 () with
  | Ok r -> r
  | Error e -> Alcotest.failf "simulation failed: %s" e

let caps_of cfg (mapped : Config.mapped) =
  List.map (fun b -> mapped.Config.capacity b) (Config.all_buffers cfg)

let temp_journal () =
  let path = Filename.temp_file "budgetbuf-tighten" ".journal" in
  Sys.remove path;
  path

(* One workload through the full oracle: periods, floors, probe
   accounting, determinism across a 4-domain pool, and (on journalled
   seeds) kill+resume.  Returns the probes the cycle bound refuted. *)
let check_workload ~pool ~with_resume seed =
  let cfg = workload seed in
  let r = solve_exn cfg in
  let analytic = r.Mapping.mapped in
  let t = run_exn cfg analytic in
  (* (a) the tightened mapping re-simulates within the differential
     threshold of the analytic baseline. *)
  let baseline = sim_exn cfg analytic in
  let tightened = sim_exn cfg t.Tighten.mapped in
  List.iter
    (fun g ->
      let mu = Config.period cfg g in
      let base_p = baseline.Sim.graph_period g in
      let p = tightened.Sim.graph_period g in
      if p > threshold (Float.max mu base_p) then
        Alcotest.failf "seed %d: graph %s simulates at %.6f > max(%.6f, %.6f)"
          seed (Config.graph_name cfg g) p mu base_p)
    (Config.graphs cfg);
  (* (b) per-buffer bounds: floor ≤ tightened ≤ analytic, and the
     returned mapping agrees with the outcomes. *)
  List.iter
    (fun b ->
      let o =
        List.find
          (fun (o : Tighten.outcome) ->
            o.Tighten.buffer_id = Config.buffer_id b)
          t.Tighten.outcomes
      in
      let floor = Int.max 1 (Config.initial_tokens cfg b) in
      Alcotest.(check int) "floor matches" floor o.Tighten.floor;
      Alcotest.(check int)
        "analytic capacity matches"
        (analytic.Config.capacity b)
        o.Tighten.analytic;
      if o.Tighten.tightened < floor || o.Tighten.tightened > o.Tighten.analytic
      then
        Alcotest.failf "seed %d: tightened %d outside [%d, %d]" seed
          o.Tighten.tightened floor o.Tighten.analytic;
      Alcotest.(check int) "mapping agrees with outcome" o.Tighten.tightened
        (t.Tighten.mapped.Config.capacity b);
      if o.Tighten.refuted > o.Tighten.probes then
        Alcotest.failf "seed %d: %d of %d probes refuted" seed o.Tighten.refuted
          o.Tighten.probes)
    (Config.all_buffers cfg);
  (* without a repair pass, the probes are the baseline, the joint
     check and every per-buffer probe, each decided by exactly one
     layer *)
  if not t.Tighten.repaired then begin
    let sum f = List.fold_left (fun acc o -> acc + f o) 0 t.Tighten.outcomes in
    let joint =
      if t.Tighten.tightened_containers < t.Tighten.analytic_containers then 1
      else 0
    in
    Alcotest.(check int)
      (Printf.sprintf "seed %d: simulations" seed)
      (1 + joint + sum (fun o -> o.Tighten.probes - o.Tighten.refuted))
      t.Tighten.probes;
    Alcotest.(check int)
      (Printf.sprintf "seed %d: refuted" seed)
      (sum (fun o -> o.Tighten.refuted))
      t.Tighten.refuted
  end;
  (* (c) bit-identical across pool sizes... *)
  let par = run_exn ~pool cfg analytic in
  Alcotest.(check (list int))
    "capacities identical across pool sizes" (caps_of cfg t.Tighten.mapped)
    (caps_of cfg par.Tighten.mapped);
  Alcotest.(check bool) "outcomes identical across pool sizes" true
    (t.Tighten.outcomes = par.Tighten.outcomes);
  (* ... and across kill+resume: a first run is cancelled after its
     first buffer, then a second run restores the journalled prefix
     and finishes; the result must match the uninterrupted one. *)
  if with_resume then begin
    let path = temp_journal () in
    let fingerprint = Journal.fingerprint [ "test-tighten"; string_of_int seed ] in
    let open_journal () =
      match Journal.resume ~fingerprint path with
      | Ok j -> j
      | Error msg -> Alcotest.failf "journal refused: %s" msg
    in
    let j = open_journal () in
    let polls = ref 0 in
    let killed =
      Fun.protect
        ~finally:(fun () -> Journal.close j)
        (fun () ->
          Tighten.run ~journal:j
            ~cancel:(fun () ->
              incr polls;
              !polls > 1)
            cfg analytic)
    in
    (match killed with
    | Ok _ -> ()
    | Error msg -> Alcotest.failf "cancelled tighten failed: %s" msg);
    let j = open_journal () in
    let resumed =
      Fun.protect
        ~finally:(fun () ->
          Journal.close j;
          Sys.remove path)
        (fun () -> run_exn ~journal:j cfg analytic)
    in
    Alcotest.(check (list int))
      "capacities identical across kill+resume" (caps_of cfg t.Tighten.mapped)
      (caps_of cfg resumed.Tighten.mapped);
    Alcotest.(check bool) "outcomes identical across kill+resume" true
      (t.Tighten.outcomes = resumed.Tighten.outcomes);
    Alcotest.(check (pair int int))
      "probe counts identical across kill+resume"
      (t.Tighten.probes, t.Tighten.refuted)
      (resumed.Tighten.probes, resumed.Tighten.refuted)
  end;
  t.Tighten.refuted

(* The oracle over seeds [first, last]; the probes the cycle bound
   refuted. *)
let battery first last =
  Parallel.Pool.with_pool ~domains:4 @@ fun pool ->
  List.fold_left
    (fun acc seed ->
      acc + check_workload ~pool ~with_resume:(seed mod 5 = 0) seed)
    0
    (List.init (last - first + 1) (( + ) first))

let test_battery () =
  Alcotest.(check int) "no probe refuted" 0 (battery 1 150)

(* The same oracle over searches the cycle bound decides. *)
let test_integral_battery () =
  let refuted = battery 151 190 in
  Alcotest.(check bool)
    (Printf.sprintf "%d probes refuted" refuted)
    true (refuted > 0)

(* ------------------------------------------------------------------ *)
(* Tightening: engine unit cases                                       *)
(* ------------------------------------------------------------------ *)

let t1_solved () =
  let cfg = Workloads.Gen.paper_t1 () in
  (cfg, solve_exn cfg)

let test_tighten_t1 () =
  (* The paper's producer-consumer instance: the analytic 10 containers
     collapse to 2 under simulation. *)
  let cfg, r = t1_solved () in
  let t = run_exn cfg r.Mapping.mapped in
  Alcotest.(check int) "analytic total" 10 t.Tighten.analytic_containers;
  Alcotest.(check int) "tightened total" 2 t.Tighten.tightened_containers

let test_invalid_arguments () =
  let cfg, r = t1_solved () in
  Alcotest.check_raises "bank = 0"
    (Invalid_argument "Tighten.run: bank granule must be >= 1") (fun () ->
      ignore (Tighten.run ~bank:0 cfg r.Mapping.mapped));
  Alcotest.check_raises "iterations = 3"
    (Invalid_argument "Tighten.run: iterations must be >= 4") (fun () ->
      ignore (Tighten.run ~iterations:3 cfg r.Mapping.mapped))

let test_infeasible_baseline_rejected () =
  (* A mapping that misses its throughput target outright (β = 1 per 40
     cannot sustain µ = 10) leaves nothing sound to tighten against. *)
  let cfg = Workloads.Gen.paper_t1 () in
  let mapped =
    { Config.budget = (fun _ -> 1.0); Config.capacity = (fun _ -> 10) }
  in
  match Tighten.run cfg mapped with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "tightened an infeasible baseline"

let test_bank_granule () =
  (* With a granule g, every accepted capacity is either a bank
     boundary or the clamped upper bound, and never needs more banks
     than covering the granule-1 result. *)
  let cfg, r = t1_solved () in
  let analytic = r.Mapping.mapped in
  let baseline = sim_exn cfg analytic in
  let fine = run_exn cfg analytic in
  List.iter
    (fun g ->
      let coarse =
        match Tighten.run ~bank:g cfg analytic with
        | Ok t -> t
        | Error msg -> Alcotest.failf "bank %d failed: %s" g msg
      in
      List.iter
        (fun b ->
          let hi =
            let floor = Int.max 1 (Config.initial_tokens cfg b) in
            Int.min
              (analytic.Config.capacity b)
              (Int.max floor (baseline.Sim.buffer_high_water b))
          in
          let t1 = fine.Tighten.mapped.Config.capacity b in
          let tg = coarse.Tighten.mapped.Config.capacity b in
          if tg mod g <> 0 && tg <> hi then
            Alcotest.failf "bank %d: capacity %d is neither a bank \
                            boundary nor the bound %d" g tg hi;
          if tg < t1 then
            Alcotest.failf "bank %d: %d below the granule-1 result %d" g tg t1;
          if tg > g * ((t1 + g - 1) / g) then
            Alcotest.failf "bank %d: %d needs more banks than covering %d" g
              tg t1)
        (Config.all_buffers cfg))
    [ 2; 3; 4; 8 ]

let test_repair_path () =
  (* A workload whose independent per-buffer minima miss the joint
     target exercises the sequential repair pass.
     The repaired mapping must satisfy the differential oracle — the
     repair search may only trust the analytic capacity unprobed, not
     the baseline high water, which need not survive the tightened
     prefix — and the by-construction joint feasibility means the
     final safety re-simulation never has to fall back. *)
  let rng = Workloads.Rng.create 3L in
  let cfg = Workloads.Gen.random_chain rng ~n:4 () in
  let r = solve_exn cfg in
  let analytic = r.Mapping.mapped in
  let t = run_exn cfg analytic in
  Alcotest.(check bool) "repair pass exercised" true t.Tighten.repaired;
  List.iter
    (fun (o : Tighten.outcome) ->
      match o.Tighten.skipped with
      | Some "joint repair failed" ->
        Alcotest.failf "buffer %d hit the repair fallback" o.Tighten.buffer_id
      | _ -> ())
    t.Tighten.outcomes;
  let baseline = sim_exn cfg analytic in
  let tightened = sim_exn cfg t.Tighten.mapped in
  List.iter
    (fun g ->
      let mu = Config.period cfg g in
      let base_p = baseline.Sim.graph_period g in
      let p = tightened.Sim.graph_period g in
      if p > threshold (Float.max mu base_p) then
        Alcotest.failf "repaired mapping simulates at %.6f > max(%.6f, %.6f) \
                        on %s"
          p mu base_p (Config.graph_name cfg g))
    (Config.graphs cfg)

let test_obs_events () =
  let cfg, r = t1_solved () in
  let obs = Obs.Ctx.make ~sink:Obs.Sink.null () in
  ignore (run_exn cfg r.Mapping.mapped);
  (match Tighten.run ~obs cfg r.Mapping.mapped with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "tighten failed: %s" msg);
  let lines = Obs.Ctx.report obs in
  Alcotest.(check bool) "report has a tighten line" true
    (List.exists
       (fun l -> String.length l >= 7 && String.sub l 0 7 = "tighten")
       lines);
  (* Each probe names the layer that decided it: T1's buffer is tested
     once, at capacity 1, and its token cycle refutes that. *)
  let sink = Obs.Sink.ring ~capacity:1024 in
  let t =
    match Tighten.run ~obs:(Obs.Ctx.make ~sink ()) cfg r.Mapping.mapped with
    | Ok t -> t
    | Error msg -> Alcotest.failf "tighten failed: %s" msg
  in
  let probes =
    List.filter_map
      (fun (e : Obs.Trace.t) ->
        match e.Obs.Trace.event with
        | Obs.Trace.Tighten_probe { capacity; feasible; layer; _ } ->
          Some (capacity, feasible, layer)
        | _ -> None)
      (Obs.Sink.events sink)
  in
  Alcotest.(check (list (triple int bool string)))
    "probe events" [ (1, false, "cycle") ] probes;
  Alcotest.(check (pair int int)) "simulations, refuted" (2, 1)
    (t.Tighten.probes, t.Tighten.refuted)

(* ------------------------------------------------------------------ *)
(* Codec: random IR round trips                                        *)
(* ------------------------------------------------------------------ *)

let coef_gen =
  QCheck2.Gen.oneof
    [
      QCheck2.Gen.oneofl
        [ 0.0; 1.0; -1.0; 0.5; -0.25; 4.0; -40.0; 1e9; -3.75e-3; 0.1 ];
      QCheck2.Gen.float_range (-100.0) 100.0;
    ]

let ir_gen =
  let open QCheck2.Gen in
  int_range 1 6 >>= fun nvars ->
  let var = int_range 0 (nvars - 1) in
  let linear_gen = list_size (int_range 0 4) (pair coef_gen var) in
  let quad_gen = list_size (int_range 0 3) (triple coef_gen var var) in
  let rel_gen = oneofl [ Lpfile.Ge; Lpfile.Le; Lpfile.Eq ] in
  let bound_gen =
    oneof [ return Lpfile.Free; map (fun v -> Lpfile.Fixed v) coef_gen ]
  in
  let row_gen =
    map
      (fun (linear, quad, rel, rhs) ->
        { Lpfile.row_name = ""; linear; quad; rel; rhs })
      (tup4 linear_gen quad_gen rel_gen coef_gen)
  in
  map
    (fun (bounds, objective, obj_const, rows) ->
      {
        Lpfile.name = "fuzz";
        vars = Array.init nvars (fun i -> Printf.sprintf "x%d" i);
        bounds = Array.of_list bounds;
        objective;
        obj_const;
        rows =
          List.mapi
            (fun i r -> { r with Lpfile.row_name = Printf.sprintf "c%d" i })
            rows;
      })
    (tup4
       (list_repeat nvars bound_gen)
       linear_gen coef_gen
       (list_size (int_range 0 5) row_gen))

let roundtrip_prop ~name render parse =
  QCheck2.Test.make ~name ~count:300 ir_gen (fun ir ->
      let text = render ir in
      match parse text with
      | Error msg -> QCheck2.Test.fail_reportf "no parse: %s\n%s" msg text
      | Ok ir' ->
        if not (Lpfile.equal ir ir') then
          QCheck2.Test.fail_reportf "IR mismatch\n%s" text;
        let text' = render ir' in
        if not (String.equal text text') then
          QCheck2.Test.fail_reportf "re-export differs\n%s\n---\n%s" text
            text';
        true)

let prop_mps_roundtrip =
  roundtrip_prop ~name:"MPS export/parse round trip is byte-identical"
    Lpfile.to_mps Lpfile.of_mps_result

let prop_lp_roundtrip =
  roundtrip_prop ~name:"LP export/parse round trip is byte-identical"
    Lpfile.to_lp Lpfile.of_lp_result

(* The real cone programs round-trip too, in both formats, through the
   format sniffer. *)
let test_model_roundtrip () =
  List.iter
    (fun cfg ->
      let b = Budgetbuf.Socp_builder.build cfg in
      let ir = Lpfile.of_model ~name:"socp" b.Budgetbuf.Socp_builder.model in
      List.iter
        (fun render ->
          let text = render ir in
          match Lpfile.of_string_result text with
          | Error msg -> Alcotest.failf "no parse: %s" msg
          | Ok ir' ->
            Alcotest.(check bool) "IR equal" true (Lpfile.equal ir ir');
            Alcotest.(check string) "byte-identical" text (render ir'))
        [ Lpfile.to_mps; Lpfile.to_lp ])
    [
      Workloads.Gen.paper_t1 ();
      Workloads.Gen.paper_t2 ();
      Workloads.Gen.chain ~n:4 ();
    ]

(* QCMATRIX is the symmetric matrix of x'Qx: a cross term 3·x·y is
   written as both halves (x,y,1.5) and (y,x,1.5) — the convention an
   external CPLEX/Gurobi expects — while a diagonal term appears once;
   the parser folds the halves back into one canonical term. *)
let test_qcmatrix_symmetric () =
  let ir =
    {
      Lpfile.name = "q";
      vars = [| "x"; "y" |];
      bounds = [| Lpfile.Free; Lpfile.Free |];
      objective = [ (1.0, 0) ];
      obj_const = 0.0;
      rows =
        [
          {
            Lpfile.row_name = "c0";
            linear = [];
            quad = [ (3.0, 0, 1); (2.0, 1, 1) ];
            rel = Lpfile.Ge;
            rhs = 0.0;
          };
        ];
    }
  in
  let text = Lpfile.to_mps ir in
  let contains needle =
    let n = String.length needle and h = String.length text in
    let rec go i = i + n <= h && (String.sub text i n = needle || go (i + 1)) in
    Alcotest.(check bool) (Printf.sprintf "contains %S" needle) true (go 0)
  in
  contains " x y 1.5\n";
  contains " y x 1.5\n";
  contains " y y 2\n";
  match Lpfile.of_mps_result text with
  | Error msg -> Alcotest.failf "no parse: %s" msg
  | Ok ir' ->
    Alcotest.(check bool) "halves fold back" true (Lpfile.equal ir ir');
    Alcotest.(check string) "byte-identical" text (Lpfile.to_mps ir')

(* A model name with interior runs of spaces survives parse→re-export
   byte-identically in both formats (the NAME line is kept raw, not
   tokenised and rejoined). *)
let test_name_whitespace_roundtrip () =
  let ir =
    {
      Lpfile.name = "two  spaces   three";
      vars = [| "x" |];
      bounds = [| Lpfile.Free |];
      objective = [ (1.0, 0) ];
      obj_const = 0.0;
      rows = [];
    }
  in
  List.iter
    (fun (label, render, parse) ->
      let text = render ir in
      match parse text with
      | Error msg -> Alcotest.failf "%s: no parse: %s" label msg
      | Ok ir' ->
        Alcotest.(check string)
          (label ^ ": name preserved")
          ir.Lpfile.name ir'.Lpfile.name;
        Alcotest.(check string) (label ^ ": byte-identical") text (render ir'))
    [
      ("mps", Lpfile.to_mps, Lpfile.of_mps_result);
      ("lp", Lpfile.to_lp, Lpfile.of_lp_result);
    ]

(* ------------------------------------------------------------------ *)
(* Codec: totality under mutation                                      *)
(* ------------------------------------------------------------------ *)

let mutation_prop ~name render =
  QCheck2.Test.make ~name ~count:400
    QCheck2.Gen.(
      tup4 ir_gen (int_range 0 10_000) (int_range 0 255) (int_range 0 10_000))
    (fun (ir, pos, byte, cut) ->
      let text = render ir in
      let n = String.length text in
      let mutated = Bytes.of_string text in
      if n > 0 then Bytes.set mutated (pos mod n) (Char.chr byte);
      let mutated = Bytes.to_string mutated in
      let truncated = String.sub text 0 (cut mod (n + 1)) in
      List.for_all
        (fun s ->
          match Lpfile.of_string_result s with
          | Ok _ | Error _ -> true
          | exception e ->
            QCheck2.Test.fail_reportf "parser raised %s on:\n%s"
              (Printexc.to_string e) s)
        [ mutated; truncated ])

let prop_mps_total = mutation_prop ~name:"mutated MPS never raises" Lpfile.to_mps
let prop_lp_total = mutation_prop ~name:"mutated LP never raises" Lpfile.to_lp

let test_malformed_rejected () =
  List.iter
    (fun (label, text) ->
      match Lpfile.of_string_result text with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%s parsed" label
      | exception e ->
        Alcotest.failf "%s raised %s" label (Printexc.to_string e))
    [
      ("empty", "");
      ("garbage", "the quick brown fox");
      ("MPS header only", "NAME m\n");
      ( "MPS unknown column var",
        "NAME m\nROWS\n N obj\n G c0\nCOLUMNS\n y c0 1\nRHS\nBOUNDS\n FR \
         BND x\nENDATA\n" );
      ( "MPS unknown row",
        "NAME m\nROWS\n N obj\n G c0\nCOLUMNS\n x nope 1\nRHS\nBOUNDS\n FR \
         BND x\nENDATA\n" );
      ( "MPS bad float",
        "NAME m\nROWS\n N obj\n G c0\nCOLUMNS\n x c0 wat\nRHS\nBOUNDS\n FR \
         BND x\nENDATA\n" );
      ("LP maximization", "Maximize\n obj: 1 x\nSubject To\nBounds\n x \
                           free\nEnd\n");
      ("LP unknown var in row",
       "Minimize\n obj: 1 x\nSubject To\n c0: 1 y >= 0\nBounds\n x free\nEnd\n");
      ("LP unterminated quad",
       "Minimize\n obj: 1 x\nSubject To\n c0: [ 1 x ^ 2 >= 0\nBounds\n x \
        free\nEnd\n");
    ]

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "tighten"
    [
      ( "oracle",
        [
          Alcotest.test_case "150-workload battery" `Quick test_battery;
          Alcotest.test_case "integral battery" `Quick test_integral_battery;
          Alcotest.test_case "paper t1" `Quick test_tighten_t1;
          Alcotest.test_case "invalid arguments" `Quick test_invalid_arguments;
          Alcotest.test_case "infeasible baseline" `Quick
            test_infeasible_baseline_rejected;
          Alcotest.test_case "bank granule" `Quick test_bank_granule;
          Alcotest.test_case "repair path" `Quick test_repair_path;
          Alcotest.test_case "obs events" `Quick test_obs_events;
        ] );
      ( "codec",
        Alcotest.test_case "real models round trip" `Quick test_model_roundtrip
        :: Alcotest.test_case "QCMATRIX symmetric halves" `Quick
             test_qcmatrix_symmetric
        :: Alcotest.test_case "name whitespace round trip" `Quick
             test_name_whitespace_roundtrip
        :: Alcotest.test_case "malformed rejected" `Quick
             test_malformed_rejected
        :: List.map QCheck_alcotest.to_alcotest
             [
               prop_mps_roundtrip; prop_lp_roundtrip; prop_mps_total;
               prop_lp_total;
             ] );
    ]
