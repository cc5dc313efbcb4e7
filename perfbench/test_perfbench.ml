(* The benchmark's own tests: seeded inputs are reproducible, every
   metric name is well-formed and listed in BENCHMARK.json, and the
   percentile helper only reports a p90 it can back. *)

open Perfbench

(* ---- a minimal JSON reader, enough for BENCHMARK.json ------------- *)

type json = Str of string | Num of float | Bool of bool | Arr of json list | Obj of (string * json) list

let parse_json s =
  let pos = ref 0 in
  let peek () = s.[!pos] in
  let rec ws () =
    if !pos < String.length s && String.contains " \n\r\t" (peek ()) then begin
      incr pos;
      ws ()
    end
  in
  let expect c =
    ws ();
    if peek () <> c then failwith (Printf.sprintf "expected %c at %d" c !pos);
    incr pos
  in
  let string () =
    expect '"';
    let b = Buffer.create 16 in
    while peek () <> '"' do
      if peek () = '\\' then incr pos;
      Buffer.add_char b (peek ());
      incr pos
    done;
    incr pos;
    Buffer.contents b
  in
  let rec value () =
    ws ();
    match peek () with
    | '"' -> Str (string ())
    | '[' ->
      incr pos;
      ws ();
      if peek () = ']' then (incr pos; Arr [])
      else
        let rec items acc =
          let acc = value () :: acc in
          ws ();
          if peek () = ',' then (incr pos; items acc) else (expect ']'; Arr (List.rev acc))
        in
        items []
    | '{' ->
      incr pos;
      ws ();
      if peek () = '}' then (incr pos; Obj [])
      else
        let rec fields acc =
          let k = string () in
          expect ':';
          let acc = (k, value ()) :: acc in
          ws ();
          if peek () = ',' then (incr pos; ws (); fields acc) else (expect '}'; Obj (List.rev acc))
        in
        fields []
    | 't' -> pos := !pos + 4; Bool true
    | 'f' -> pos := !pos + 5; Bool false
    | _ ->
      let start = !pos in
      while !pos < String.length s && String.contains "+-.eE0123456789" (peek ()) do incr pos done;
      Num (float_of_string (String.sub s start (!pos - start)))
  in
  value ()

let field k = function Obj kv -> List.assoc k kv | _ -> failwith "not an object"

let str = function Str s -> s | _ -> failwith "not a string"

let arr = function Arr l -> l | _ -> failwith "not an array"

let benchmark = lazy (parse_json (In_channel.with_open_bin "../BENCHMARK.json" In_channel.input_all))

let better_name = function Spec.Higher -> "higher" | Spec.Lower -> "lower"

(* ---- inputs -------------------------------------------------------- *)

let one_shot_texts seed w =
  List.map
    (fun (op : Inputs.op) -> Inputs.kind_name op.kind ^ "\n" ^ op.inst.name ^ "\n" ^ op.inst.text)
    (Option.get (Inputs.one_shot ~seed w))

let admit_texts seed =
  Array.to_list
    (Array.map
       (fun (r : Inputs.request) -> string_of_int r.instance ^ "\n" ^ r.config)
       (Inputs.admit_stream ~seed ~count:300))

let test_same_seed () =
  List.iter
    (fun w ->
      Alcotest.(check (list string)) (w ^ " seed 7 twice") (one_shot_texts 7 w) (one_shot_texts 7 w))
    [ "solve-large"; "sweep-small"; "tighten-mix" ];
  Alcotest.(check (list string)) "admit stream seed 7 twice" (admit_texts 7) (admit_texts 7)

let test_other_seed () =
  List.iter
    (fun w ->
      Alcotest.(check bool) (w ^ " seeds 7 and 8 differ") true (one_shot_texts 7 w <> one_shot_texts 8 w))
    [ "solve-large"; "sweep-small"; "tighten-mix" ];
  Alcotest.(check bool) "admit streams of seeds 7 and 8 differ" true (admit_texts 7 <> admit_texts 8)

let test_admit_hits () =
  let stream = Inputs.admit_stream ~seed:3 ~count:1000 in
  let seen = Hashtbl.create 64 and repeats = ref 0 in
  Array.iter
    (fun (r : Inputs.request) ->
      if Hashtbl.mem seen r.instance then incr repeats else Hashtbl.add seen r.instance ())
    stream;
  let share = float_of_int !repeats /. 1000.0 in
  Alcotest.(check bool)
    (Printf.sprintf "repeat share %.2f between 1/2 and 2/3" share)
    true
    (share >= 0.5 && share <= 2.0 /. 3.0)

(* ---- metric names -------------------------------------------------- *)

let listed section =
  List.map
    (fun m -> (str (field "name" m), str (field "unit" m), str (field "better" m)))
    (arr (field section (Lazy.force benchmark)))

let test_names_well_formed () =
  List.iter
    (fun (m : Spec.metric) ->
      Alcotest.(check bool) (m.name ^ " matches [A-Za-z0-9_.-]+") true (Spec.valid_name m.name))
    (List.map fst Spec.end_to_end @ Spec.reported_only @ Spec.per_layer);
  List.iter
    (fun w -> Alcotest.(check bool) (w ^ " is a valid name") true (Spec.valid_name w))
    Spec.workloads

let test_names_listed () =
  let spec l = List.map (fun (m : Spec.metric) -> (m.name, m.unit, better_name m.better)) l in
  Alcotest.(check (list (triple string string string)))
    "end_to_end" (spec (List.map fst Spec.end_to_end)) (listed "end_to_end");
  Alcotest.(check (list (triple string string string))) "per_layer" (spec Spec.per_layer) (listed "per_layer");
  Alcotest.(check (list string))
    "workloads" Spec.workloads
    (List.map (fun w -> str (field "name" w)) (arr (field "workloads" (Lazy.force benchmark))));
  List.iter2
    (fun (_, bound) j ->
      match field "bound" j with
      | Num b -> Alcotest.(check (float 1e-12)) "bound" bound b
      | _ -> Alcotest.fail "bound is not a number")
    Spec.end_to_end
    (arr (field "end_to_end" (Lazy.force benchmark)))

let test_result_line () =
  let o =
    {
      Outcome.attempted = 4;
      failed = 0;
      failures = [];
      latencies_ms = [ 1.0; 2.0; 3.0; 4.0 ];
      op_ms = [];
      elapsed_s = 2.0;
      setups_s = [ 0.5; 0.25; 0.75 ];
      peak_rss_mb = 10.0;
      containers_total = None;
      objective_total = None;
      digest = "";
      problems = [];
    }
  in
  let line = Outcome.result_line ~correct:true ~attempted:4 ~failed:0 (Outcome.end_to_end o) in
  let j = parse_json line in
  Alcotest.(check (list string))
    "result keys" [ "correct"; "attempted"; "failed"; "metrics" ]
    (match j with Obj kv -> List.map fst kv | _ -> []);
  Alcotest.(check (list string))
    "metrics are the end-to-end ones"
    (List.map (fun ((m : Spec.metric), _) -> m.name) Spec.end_to_end)
    (match field "metrics" j with Obj kv -> List.map fst kv | _ -> []);
  match field "value" (field "setup_s" (field "metrics" j)) with
  | Num v -> Alcotest.(check (float 1e-12)) "setup_s is the median set-up" 0.5 v
  | _ -> Alcotest.fail "setup_s value"

(* ---- percentiles --------------------------------------------------- *)

let test_p90 () =
  let samples n = List.init n (fun i -> float_of_int (i + 1)) in
  Alcotest.(check (option (float 0.0))) "99 samples: no p90" None (Stats.p90 (samples 99));
  Alcotest.(check (option (float 0.0))) "100 samples: p90 is the 90th" (Some 90.0) (Stats.p90 (samples 100));
  List.iter
    (fun n ->
      match Stats.p90 (samples n) with
      | None -> ()
      | Some p ->
        let beyond = List.length (List.filter (fun x -> x > p) (samples n)) in
        Alcotest.(check bool) (Printf.sprintf "%d samples: %d beyond p90" n beyond) true (beyond >= 10))
    (List.init 300 succ);
  Alcotest.(check (option (float 0.0))) "median of 1..5" (Some 3.0) (Stats.median (samples 5));
  Alcotest.(check (option (float 0.0))) "median of nothing" None (Stats.median [])

let () =
  Alcotest.run "perfbench"
    [
      ( "inputs",
        [
          Alcotest.test_case "same seed, same inputs" `Quick test_same_seed;
          Alcotest.test_case "other seed, other inputs" `Quick test_other_seed;
          Alcotest.test_case "admit stream repeats" `Quick test_admit_hits;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "names well formed" `Quick test_names_well_formed;
          Alcotest.test_case "names listed in BENCHMARK.json" `Quick test_names_listed;
          Alcotest.test_case "result line" `Quick test_result_line;
        ] );
      ("stats", [ Alcotest.test_case "p90 needs 10 samples beyond" `Quick test_p90 ]);
    ]
