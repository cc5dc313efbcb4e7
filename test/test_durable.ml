(* Tests for the durability layer: CRC-32, deadlines on a fake clock,
   the crash-safe journal (round-trip, fingerprint pinning, torn and
   corrupt tails), the sweep engine's restore/solve/abandon split, and
   the drivers' resume and timeout behaviour end to end — including
   the PR's acceptance pin: a sweep killed at candidate k of n and
   resumed performs exactly n − k new solves with results identical to
   the uninterrupted run. *)

module Crc = Obs.Crc
module Deadline = Durable.Deadline
module Journal = Durable.Journal
module Sweep = Durable.Sweep
module Pool = Parallel.Pool
module Config = Taskgraph.Config
module Mapping = Budgetbuf.Mapping
module Tradeoff = Budgetbuf.Tradeoff
module Dse = Budgetbuf.Dse
module Pareto = Budgetbuf.Pareto
module Durability = Budgetbuf.Durability
module Fault = Robust.Fault

let check_float eps = Alcotest.(check (float eps))

let temp_journal () =
  let path = Filename.temp_file "budgetbuf-test" ".journal" in
  (* Journal.resume insists on creating fresh files itself. *)
  Sys.remove path;
  path

let ok_journal = function
  | Ok j -> j
  | Error msg -> Alcotest.failf "journal refused: %s" msg

let with_journal ~fingerprint path f =
  let j = ok_journal (Journal.resume ~fingerprint path) in
  Fun.protect ~finally:(fun () -> Journal.close j) (fun () -> f j)

(* ------------------------------------------------------------------ *)
(* CRC-32                                                              *)
(* ------------------------------------------------------------------ *)

let test_crc_check_value () =
  Alcotest.(check int32) "IEEE check value" 0xCBF43926l
    (Crc.string "123456789");
  Alcotest.(check string) "hex" "cbf43926" (Crc.hex (Crc.string "123456789"));
  Alcotest.(check string) "empty" "00000000" (Crc.hex (Crc.string ""))

let test_crc_update () =
  Alcotest.(check int32) "incremental = one-shot" (Crc.string "123456789")
    (Crc.update (Crc.string "1234") "56789");
  Alcotest.(check int32) "empty suffix" (Crc.string "abc")
    (Crc.update (Crc.string "abc") "")

(* ------------------------------------------------------------------ *)
(* Deadlines (fake clock)                                              *)
(* ------------------------------------------------------------------ *)

let with_clock now f =
  Deadline.set_clock_for_testing (Some (fun () -> !now));
  Fun.protect ~finally:(fun () -> Deadline.set_clock_for_testing None) f

let test_deadline_basics () =
  let now = ref 100.0 in
  with_clock now @@ fun () ->
  let d = Deadline.after 5.0 in
  Alcotest.(check bool) "fresh" false (Deadline.expired d);
  check_float 1e-9 "remaining" 5.0 (Deadline.remaining_s d);
  now := 104.999;
  Alcotest.(check bool) "almost" false (Deadline.expired d);
  now := 105.0;
  Alcotest.(check bool) "on the instant" true (Deadline.expired d);
  check_float 1e-9 "nothing left" 0.0 (Deadline.remaining_s d);
  Alcotest.(check bool) "none never expires" false (Deadline.expired Deadline.none)

let test_deadline_combine_and_check () =
  let now = ref 0.0 in
  with_clock now @@ fun () ->
  let d1 = Deadline.after 1.0 in
  let d2 = Deadline.after 2.0 in
  let d = Deadline.combine d1 d2 in
  now := 1.5;
  Alcotest.(check bool) "earlier wins" true (Deadline.expired d);
  Alcotest.(check bool) "none is neutral" true
    (Deadline.combine Deadline.none d1 = d1);
  Alcotest.(check bool) "no check for none" true
    (Deadline.check Deadline.none = None);
  (match Deadline.check d2 with
  | None -> Alcotest.fail "expected a checker"
  | Some expired ->
    Alcotest.(check bool) "not yet" false (expired ());
    now := 2.0;
    Alcotest.(check bool) "now" true (expired ()))

let test_deadline_invalid () =
  List.iter
    (fun s ->
      match Deadline.after s with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "after %g accepted" s)
    [ 0.0; -1.0; Float.nan; Float.infinity ]

(* ------------------------------------------------------------------ *)
(* Journal                                                             *)
(* ------------------------------------------------------------------ *)

let test_journal_roundtrip () =
  let path = temp_journal () in
  let fp = Journal.fingerprint [ "roundtrip" ] in
  with_journal ~fingerprint:fp path (fun j ->
      Alcotest.(check int) "fresh is empty" 0 (List.length (Journal.entries j));
      Journal.record j ~index:0 ~payload:"alpha";
      Journal.record j ~index:2 ~payload:"two  spaces and a %S\"quote\"");
  with_journal ~fingerprint:fp path (fun j ->
      match Journal.entries j with
      | [ e0; e2 ] ->
        Alcotest.(check int) "index 0" 0 e0.Journal.index;
        Alcotest.(check string) "payload 0" "alpha" e0.Journal.payload;
        Alcotest.(check int) "index 2" 2 e2.Journal.index;
        Alcotest.(check string) "payload 2" "two  spaces and a %S\"quote\""
          e2.Journal.payload
      | es -> Alcotest.failf "expected 2 entries, got %d" (List.length es));
  Sys.remove path

let test_journal_fingerprint_mismatch () =
  let path = temp_journal () in
  let fp = Journal.fingerprint [ "sweep"; "a" ] in
  with_journal ~fingerprint:fp path (fun j ->
      Journal.record j ~index:0 ~payload:"x");
  (match Journal.resume ~fingerprint:(Journal.fingerprint [ "sweep"; "b" ]) path with
  | Ok j ->
    Journal.close j;
    Alcotest.fail "mismatched fingerprint accepted"
  | Error msg -> Alcotest.(check bool) "has a reason" true (msg <> ""));
  (* Length prefixing keeps part boundaries unambiguous. *)
  Alcotest.(check bool) "parts are length-prefixed" false
    (Journal.fingerprint [ "sweep"; "a" ] = Journal.fingerprint [ "sweepa" ]);
  Sys.remove path

let test_journal_torn_tail () =
  let path = temp_journal () in
  let fp = Journal.fingerprint [ "torn" ] in
  with_journal ~fingerprint:fp path (fun j ->
      Journal.record j ~index:0 ~payload:"first";
      Journal.record j ~index:1 ~payload:"second");
  (* Simulate a crash mid-write: a valid prefix of a line, no newline. *)
  let oc = open_out_gen [ Open_append ] 0o644 path in
  output_string oc "deadbeef done 2 par";
  close_out oc;
  with_journal ~fingerprint:fp path (fun j ->
      Alcotest.(check int) "torn tail dropped" 2
        (List.length (Journal.entries j));
      (* The truncation leaves the file appendable again. *)
      Journal.record j ~index:2 ~payload:"third");
  with_journal ~fingerprint:fp path (fun j ->
      Alcotest.(check int) "re-recorded" 3 (List.length (Journal.entries j)));
  Sys.remove path

let test_journal_corrupt_line () =
  let path = temp_journal () in
  let fp = Journal.fingerprint [ "corrupt" ] in
  with_journal ~fingerprint:fp path (fun j ->
      Journal.record j ~index:0 ~payload:"first";
      Journal.record j ~index:1 ~payload:"second");
  (* Flip one byte inside the first entry's payload: its CRC no longer
     matches, so it and everything after it are dropped. *)
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
  let header_len =
    let ic = open_in path in
    let len = String.length (input_line ic) + 1 in
    close_in ic;
    len
  in
  ignore (Unix.lseek fd (header_len + 3) Unix.SEEK_SET);
  ignore (Unix.write_substring fd "X" 0 1);
  Unix.close fd;
  with_journal ~fingerprint:fp path (fun j ->
      Alcotest.(check int) "damaged entry and successors dropped" 0
        (List.length (Journal.entries j)));
  Sys.remove path

let test_journal_bad_header () =
  let path = temp_journal () in
  let oc = open_out path in
  output_string oc "not a journal at all\n";
  close_out oc;
  (match Journal.resume ~fingerprint:(Journal.fingerprint [ "x" ]) path with
  | Ok j ->
    Journal.close j;
    Alcotest.fail "garbage header accepted"
  | Error _ -> ());
  Sys.remove path

let test_journal_record_validation () =
  let path = temp_journal () in
  let fp = Journal.fingerprint [ "validate" ] in
  let j = ok_journal (Journal.resume ~fingerprint:fp path) in
  (match Journal.record j ~index:(-1) ~payload:"x" with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "negative index accepted");
  (match Journal.record j ~index:0 ~payload:"a\nb" with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "newline payload accepted");
  Journal.close j;
  Journal.close j (* idempotent *);
  (match Journal.record j ~index:0 ~payload:"x" with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "closed journal accepted a record");
  Sys.remove path

(* ------------------------------------------------------------------ *)
(* Sweep engine                                                        *)
(* ------------------------------------------------------------------ *)

let int_codec =
  ( (fun v -> Some (string_of_int v)),
    fun _index payload -> int_of_string_opt payload )

(* The harness over plain ints: a raising candidate becomes -1. *)
let run_ints ?pool ?journal ?obs ?deadline ?candidate_deadline ?cancel
    ~encode ~decode ~n f =
  Sweep.run ?pool ?journal ?obs ?deadline ?candidate_deadline ?cancel ~encode
    ~decode ~verdict:string_of_int
    ~failed:(fun _ _ -> -1)
    ~n
    (fun ~deadline:_ i -> f i)

let test_sweep_restores_and_solves () =
  let path = temp_journal () in
  let fp = Journal.fingerprint [ "sweep-unit" ] in
  let encode, decode = int_codec in
  let solves = ref 0 in
  let f i =
    incr solves;
    i * i
  in
  with_journal ~fingerprint:fp path (fun j ->
      let results, p = run_ints ~journal:j ~encode ~decode ~n:5 f in
      Alcotest.(check int) "all solved" 5 p.Sweep.solved;
      Alcotest.(check int) "none restored" 0 p.Sweep.resumed;
      Alcotest.(check int) "none abandoned" 0 p.Sweep.not_run;
      Alcotest.(check (array (option int))) "values"
        (Array.init 5 (fun i -> Some (i * i)))
        results);
  Alcotest.(check int) "five solves" 5 !solves;
  with_journal ~fingerprint:fp path (fun j ->
      let results, p = run_ints ~journal:j ~encode ~decode ~n:5 f in
      Alcotest.(check int) "all restored" 5 p.Sweep.resumed;
      Alcotest.(check int) "nothing re-solved" 0 p.Sweep.solved;
      Alcotest.(check (array (option int))) "restored values"
        (Array.init 5 (fun i -> Some (i * i)))
        results);
  Alcotest.(check int) "no extra solves" 5 !solves;
  Sys.remove path

let test_sweep_encode_none_not_journaled () =
  let path = temp_journal () in
  let fp = Journal.fingerprint [ "encode-none" ] in
  (* Odd results are "not final verdicts": withheld from the journal,
     so a resume retries exactly those. *)
  let encode v = if v mod 2 = 0 then Some (string_of_int v) else None in
  let decode _ payload = int_of_string_opt payload in
  with_journal ~fingerprint:fp path (fun j ->
      ignore (run_ints ~journal:j ~encode ~decode ~n:6 (fun i -> i)));
  with_journal ~fingerprint:fp path (fun j ->
      Alcotest.(check int) "only evens journaled" 3
        (List.length (Journal.entries j));
      let _, p = run_ints ~journal:j ~encode ~decode ~n:6 (fun i -> i) in
      Alcotest.(check int) "evens restored" 3 p.Sweep.resumed;
      Alcotest.(check int) "odds retried" 3 p.Sweep.solved);
  Sys.remove path

let test_sweep_cancelled_before_start () =
  let encode, decode = int_codec in
  let results, p =
    run_ints ~cancel:(fun () -> true) ~encode ~decode ~n:4 (fun i -> i)
  in
  Alcotest.(check int) "nothing ran" 4 p.Sweep.not_run;
  Alcotest.(check bool) "all slots empty" true
    (Array.for_all Option.is_none results)

let test_sweep_expired_deadline () =
  let now = ref 0.0 in
  with_clock now @@ fun () ->
  let d = Deadline.after 1.0 in
  now := 2.0;
  let encode, decode = int_codec in
  let _, p = run_ints ~deadline:d ~encode ~decode ~n:3 (fun i -> i) in
  Alcotest.(check int) "abandoned to the deadline" 3 p.Sweep.not_run

let test_sweep_pool_matches_sequential () =
  let encode, decode = int_codec in
  let f i = (i * 7) + 1 in
  let seq, _ = run_ints ~encode ~decode ~n:8 f in
  Pool.with_pool ~domains:2 (fun pool ->
      let par, p = run_ints ~pool ~encode ~decode ~n:8 f in
      Alcotest.(check int) "all solved" 8 p.Sweep.solved;
      Alcotest.(check (array (option int))) "bit-identical" seq par)

(* The [Candidate] events of a traced sweep, as (index, verdict). *)
let candidate_events sink =
  List.filter_map
    (fun (e : Obs.Trace.t) ->
      match e.Obs.Trace.event with
      | Obs.Trace.Candidate { index; verdict } -> Some (index, verdict)
      | _ -> None)
    (Obs.Sink.events sink)

let test_sweep_barrier () =
  let path = temp_journal () in
  let fp = Journal.fingerprint [ "sweep-barrier" ] in
  let encode, decode = int_codec in
  let sink = Obs.Sink.ring ~capacity:64 in
  let obs = Obs.Ctx.make ~sink () in
  with_journal ~fingerprint:fp path (fun j ->
      let results, p =
        Sweep.run ~journal:j ~obs ~encode ~decode ~verdict:string_of_int
          ~failed:(fun i e ->
            Alcotest.(check string)
              "the candidate's exception" "Failure(\"boom\")"
              (Printexc.to_string e);
            100 + i)
          ~n:3
          (fun ~deadline:_ i -> if i = 1 then failwith "boom" else i)
      in
      Alcotest.(check int) "all solved" 3 p.Sweep.solved;
      Alcotest.(check (array (option int))) "failed i e fills the slot"
        [| Some 0; Some 101; Some 2 |] results);
  Alcotest.(check (list (pair int string))) "one verdict per candidate"
    [ (0, "0"); (1, "101"); (2, "2") ]
    (List.sort compare (candidate_events sink));
  with_journal ~fingerprint:fp path (fun j ->
      Alcotest.(check (list string)) "journaled through encode"
        [ "0"; "101"; "2" ]
        (List.map
           (fun (e : Journal.entry) -> e.Journal.payload)
           (List.sort
              (fun (a : Journal.entry) b ->
                compare a.Journal.index b.Journal.index)
              (Journal.entries j))));
  Sys.remove path

let test_sweep_restored_no_candidate () =
  let path = temp_journal () in
  let fp = Journal.fingerprint [ "sweep-restored" ] in
  let encode, decode = int_codec in
  with_journal ~fingerprint:fp path (fun j ->
      ignore (run_ints ~journal:j ~encode ~decode ~n:2 Fun.id));
  let sink = Obs.Sink.ring ~capacity:64 in
  let obs = Obs.Ctx.make ~sink () in
  with_journal ~fingerprint:fp path (fun j ->
      let _, p = run_ints ~journal:j ~obs ~encode ~decode ~n:4 Fun.id in
      Alcotest.(check int) "two restored" 2 p.Sweep.resumed);
  Alcotest.(check (list (pair int string))) "only the new slots"
    [ (2, "2"); (3, "3") ]
    (List.sort compare (candidate_events sink));
  Sys.remove path

let test_sweep_candidate_deadline () =
  let now = ref 0.0 in
  with_clock now @@ fun () ->
  let encode, decode = int_codec in
  let remaining ?deadline ?candidate_deadline () =
    let seen = ref [] in
    ignore
      (Sweep.run ?deadline ?candidate_deadline ~encode ~decode
         ~verdict:string_of_int
         ~failed:(fun _ e -> raise e)
         ~n:2
         (fun ~deadline i ->
           seen :=
             (if Deadline.is_none deadline then -1.0
              else Deadline.remaining_s deadline)
             :: !seen;
           (* the next candidate's budget starts when it does *)
           now := !now +. 0.25;
           i));
    List.rev !seen
  in
  Alcotest.(check (list (float 1e-9))) "no limit" [ -1.0; -1.0 ]
    (remaining ());
  now := 0.0;
  Alcotest.(check (list (float 1e-9))) "the sweep deadline" [ 10.0; 9.75 ]
    (remaining ~deadline:(Deadline.after 10.0) ());
  now := 0.0;
  Alcotest.(check (list (float 1e-9))) "a fresh budget per candidate"
    [ 1.0; 1.0 ]
    (remaining ~deadline:(Deadline.after 10.0) ~candidate_deadline:1.0 ());
  now := 0.0;
  Alcotest.(check (list (float 1e-9))) "the earlier of the two" [ 1.0; 0.75 ]
    (remaining ~deadline:(Deadline.after 1.0) ~candidate_deadline:2.0 ())

(* ------------------------------------------------------------------ *)
(* Pool cancellation                                                   *)
(* ------------------------------------------------------------------ *)

let test_pool_cancel_wellformed () =
  Pool.with_pool ~domains:2 @@ fun pool ->
  let rs = Pool.map_result ~cancel:(fun () -> true) pool (fun x -> x * 2) [ 1; 2; 3 ] in
  Alcotest.(check int) "one outcome per input" 3 (List.length rs);
  List.iter
    (function
      | Error Pool.Cancelled -> ()
      | Error e -> Alcotest.failf "unexpected error: %s" (Printexc.to_string e)
      | Ok _ -> Alcotest.fail "task ran despite cancellation")
    rs;
  (* The pool survives a cancelled batch. *)
  let rs2 = Pool.map_result pool (fun x -> x + 1) [ 1; 2; 3 ] in
  Alcotest.(check bool) "pool still usable" true
    (rs2 = [ Ok 2; Ok 3; Ok 4 ])

(* ------------------------------------------------------------------ *)
(* Drivers: resume re-solves exactly the missing candidates            *)
(* ------------------------------------------------------------------ *)

let fault_plan spec =
  match Fault.of_string spec with
  | Ok plan -> Some plan
  | Error e -> Alcotest.failf "fault spec %S: %s" spec e

let test_dse_resume_exact_solves () =
  let cfg = Workloads.Gen.paper_t1 () in
  let caps = [ 1; 2; 3; 4 ] in
  let full = Dse.curve_points (Dse.throughput_curve cfg ~caps) in
  let path = temp_journal () in
  let fp = Journal.fingerprint [ "dse-resume" ] in
  (* "Kill" the sweep after candidate 0: the cancel flag flips once the
     first candidate has been journaled, exactly like a SIGINT between
     candidates. *)
  let first = ref None in
  with_journal ~fingerprint:fp path (fun j ->
      let calls = ref 0 in
      let cancel () =
        incr calls;
        !calls > 1
      in
      let points =
        Dse.throughput_curve ~journal:j ~cancel
          ~on_progress:(fun p -> first := Some p)
          cfg ~caps
      in
      Alcotest.(check int) "one candidate completed" 1 (List.length points));
  (match !first with
  | Some p ->
    Alcotest.(check int) "k = 1 solved" 1 p.Sweep.solved;
    Alcotest.(check int) "n - k abandoned" 3 p.Sweep.not_run
  | None -> Alcotest.fail "no progress report");
  (* Resume: exactly n - k = 3 new solves, bit-identical curve. *)
  let second = ref None in
  with_journal ~fingerprint:fp path (fun j ->
      let points =
        Dse.throughput_curve ~journal:j
          ~on_progress:(fun p -> second := Some p)
          cfg ~caps
      in
      Alcotest.(check (list (pair int (float 0.0))))
        "identical to the uninterrupted sweep" full (Dse.curve_points points));
  (match !second with
  | Some p ->
    Alcotest.(check int) "restored k" 1 p.Sweep.resumed;
    Alcotest.(check int) "re-solved exactly n - k" 3 p.Sweep.solved;
    Alcotest.(check int) "nothing abandoned" 0 p.Sweep.not_run
  | None -> Alcotest.fail "no progress report");
  Sys.remove path

let test_tradeoff_resume_restores_results () =
  let cfg = Workloads.Gen.paper_t1 () in
  let buffers = Config.all_buffers cfg in
  let caps = [ 1; 2; 3 ] in
  let full = Tradeoff.capacity_sweep cfg ~buffers ~caps in
  let path = temp_journal () in
  let fp = Journal.fingerprint [ "tradeoff-resume" ] in
  with_journal ~fingerprint:fp path (fun j ->
      ignore (Tradeoff.capacity_sweep ~journal:j cfg ~buffers ~caps));
  let prog = ref None in
  let restored =
    with_journal ~fingerprint:fp path (fun j ->
        Tradeoff.capacity_sweep ~journal:j
          ~on_progress:(fun p -> prog := Some p)
          cfg ~buffers ~caps)
  in
  (match !prog with
  | Some p ->
    Alcotest.(check int) "all restored" 3 p.Sweep.resumed;
    Alcotest.(check int) "none re-solved" 0 p.Sweep.solved
  | None -> Alcotest.fail "no progress report");
  (* Restored points carry the exact solved values. *)
  let tasks = Config.all_tasks cfg in
  List.iter2
    (fun (a : Tradeoff.point) (b : Tradeoff.point) ->
      Alcotest.(check int) "cap" a.Tradeoff.cap b.Tradeoff.cap;
      match (a.Tradeoff.result, b.Tradeoff.result) with
      | Ok ra, Ok rb ->
        check_float 0.0 "objective" ra.Mapping.objective rb.Mapping.objective;
        List.iter
          (fun w ->
            check_float 0.0 "budget"
              (ra.Mapping.continuous.Budgetbuf.Socp_builder.budget w)
              (rb.Mapping.continuous.Budgetbuf.Socp_builder.budget w);
            check_float 0.0 "mapped budget" (ra.Mapping.mapped.Config.budget w)
              (rb.Mapping.mapped.Config.budget w))
          tasks;
        List.iter
          (fun b' ->
            Alcotest.(check int) "capacity"
              (ra.Mapping.mapped.Config.capacity b')
              (rb.Mapping.mapped.Config.capacity b'))
          buffers;
        Alcotest.(check string) "certificate"
          (Budgetbuf.Certify.summary ra.Mapping.certificate)
          (Budgetbuf.Certify.summary rb.Mapping.certificate)
      | Error ea, Error eb ->
        Alcotest.(check string) "same verdict" (Mapping.label ea)
          (Mapping.label eb)
      | _ -> Alcotest.fail "verdict changed across resume")
    full restored;
  Sys.remove path

(* Journals written before the float verification and sim-check notes
   left [Mapping.result] append [v] and [s] groups after the [b] group.
   The decoder stops after [b]: such a line restores the same point as
   the current payload, without a re-solve. *)
let test_tradeoff_resume_old_payload () =
  let cfg = Workloads.Gen.paper_t1 () in
  let buffers = Config.all_buffers cfg in
  let caps = [ 1; 2; 3 ] in
  let path = temp_journal () in
  let fp = Journal.fingerprint [ "tradeoff-old-payload" ] in
  let fresh =
    with_journal ~fingerprint:fp path (fun j ->
        Tradeoff.capacity_sweep ~journal:j cfg ~buffers ~caps)
  in
  let old_tails =
    [| " v 0 s 0"; {| v 1 "tput \"t1\" 0x1.4p+3" s 1 "simulation: note"|} |]
  in
  with_journal ~fingerprint:fp path (fun j ->
      let entries =
        List.map
          (fun (e : Journal.entry) ->
            if String.length e.Journal.payload >= 3
               && String.sub e.Journal.payload 0 3 = "ok "
            then
              {
                e with
                Journal.payload =
                  e.Journal.payload
                  ^ old_tails.(e.Journal.index mod Array.length old_tails);
              }
            else e)
          (Journal.entries j)
      in
      Alcotest.(check int) "every cap journaled" 3 (List.length entries);
      Journal.replace j ~entries);
  let prog = ref None in
  let restored =
    with_journal ~fingerprint:fp path (fun j ->
        Tradeoff.capacity_sweep ~journal:j
          ~on_progress:(fun p -> prog := Some p)
          cfg ~buffers ~caps)
  in
  (match !prog with
  | Some p ->
    Alcotest.(check int) "all restored" 3 p.Sweep.resumed;
    Alcotest.(check int) "none re-solved" 0 p.Sweep.solved
  | None -> Alcotest.fail "no progress report");
  let signature (p : Tradeoff.point) =
    match p.Tradeoff.result with
    | Ok r ->
      Printf.sprintf "%d ok %h %h %s %s [%s]" p.Tradeoff.cap
        r.Mapping.objective r.Mapping.rounded_objective
        (String.concat ","
           (List.map
              (fun w -> Printf.sprintf "%h" (r.Mapping.mapped.Config.budget w))
              (Config.all_tasks cfg)))
        (String.concat ","
           (List.map
              (fun b -> string_of_int (r.Mapping.mapped.Config.capacity b))
              buffers))
        (Budgetbuf.Certify.summary r.Mapping.certificate)
    | Error e -> Format.asprintf "%d error %a" p.Tradeoff.cap Mapping.pp_error e
  in
  Alcotest.(check (list string)) "old payloads decode to the same points"
    (List.map signature fresh) (List.map signature restored);
  Sys.remove path

(* Pareto journals the tradeoff payload: every frontier point is derived
   from a restored [Mapping.result], so a sweep killed after its first k
   records and resumed, sequentially or on a pool, must give the same
   points to the last bit — the continuous budget sum included. *)
let show_frontier (s : Pareto.sweep) =
  List.map
    (fun (p : Pareto.point) ->
      Printf.sprintf "%h %h %d %h %b" p.Pareto.weight_ratio p.Pareto.budget_sum
        p.Pareto.buffer_containers p.Pareto.rounded_objective
        p.Pareto.certified)
    s.Pareto.points
  @ List.map
      (fun (ratio, reason) -> Printf.sprintf "skip %h %s" ratio reason)
      s.Pareto.skipped

let test_pareto_resume_truncated () =
  let cfg = Workloads.Gen.paper_t1 () in
  let steps = 9 and k = 4 in
  let full = show_frontier (Pareto.frontier ~steps cfg) in
  let path = temp_journal () in
  let fp = Journal.fingerprint [ "pareto-resume" ] in
  with_journal ~fingerprint:fp path (fun j ->
      ignore (Pareto.frontier ~steps ~journal:j cfg));
  let records = with_journal ~fingerprint:fp path Journal.entries in
  Alcotest.(check int) "every ratio journaled" steps (List.length records);
  List.iter
    (fun domains ->
      with_journal ~fingerprint:fp path (fun j ->
          Journal.replace j ~entries:(List.filteri (fun i _ -> i < k) records));
      let prog = ref None in
      let resumed =
        with_journal ~fingerprint:fp path (fun j ->
            let run ?pool () =
              Pareto.frontier ~steps ?pool ~journal:j
                ~on_progress:(fun p -> prog := Some p)
                cfg
            in
            match domains with
            | 1 -> run ()
            | d -> Pool.with_pool ~domains:d (fun pool -> run ~pool ()))
      in
      let label = Printf.sprintf "jobs %d: " domains in
      Alcotest.(check (list string))
        (label ^ "identical to the uninterrupted sweep")
        full (show_frontier resumed);
      match !prog with
      | Some p ->
        Alcotest.(check int) (label ^ "restored k") k p.Sweep.resumed;
        Alcotest.(check int) (label ^ "re-solved n - k") (steps - k)
          p.Sweep.solved
      | None -> Alcotest.fail "no progress report")
    [ 1; 4 ];
  Sys.remove path

(* Before Pareto shared the tradeoff payload it journaled its own
   [point ...] / [skip ...] / bare [infeasible] records.  None of them
   decodes now: each candidate is re-solved, never misread. *)
let test_pareto_old_journal_resolved () =
  let cfg = Workloads.Gen.paper_t1 () in
  let steps = 3 in
  let full = show_frontier (Pareto.frontier ~steps cfg) in
  let path = temp_journal () in
  let fp = Journal.fingerprint [ "pareto-old-journal" ] in
  with_journal ~fingerprint:fp path (fun j ->
      Journal.record j ~index:0
        ~payload:"point 0x1.0624dd2f1a9fcp-10 0x1.38p+6 1 0x1p+0 cert";
      Journal.record j ~index:1 ~payload:{|skip 0x1p+0 "stalled"|};
      Journal.record j ~index:2 ~payload:"infeasible");
  let prog = ref None in
  let resumed =
    with_journal ~fingerprint:fp path (fun j ->
        Pareto.frontier ~steps ~journal:j
          ~on_progress:(fun p -> prog := Some p)
          cfg)
  in
  Alcotest.(check (list string)) "same frontier" full (show_frontier resumed);
  (match !prog with
  | Some p ->
    Alcotest.(check int) "nothing restored" 0 p.Sweep.resumed;
    Alcotest.(check int) "every old record discarded" 3 p.Sweep.discarded;
    Alcotest.(check int) "every ratio re-solved" steps p.Sweep.solved
  | None -> Alcotest.fail "no progress report");
  Sys.remove path

(* A dse point is journaled as [period <hex>]; journals that end it with
   the [cert] token of the dropped certification flag still restore. *)
let test_dse_cert_payload_restores () =
  let cfg = Workloads.Gen.paper_t1 () in
  let caps = [ 1; 2 ] in
  let full = Dse.curve_points (Dse.throughput_curve cfg ~caps) in
  let path = temp_journal () in
  let fp = Journal.fingerprint [ "dse-cert-payload" ] in
  with_journal ~fingerprint:fp path (fun j ->
      List.iteri
        (fun index (_, period) ->
          Journal.record j ~index
            ~payload:(Printf.sprintf "period %h cert" period))
        full);
  let prog = ref None in
  let restored =
    with_journal ~fingerprint:fp path (fun j ->
        Dse.throughput_curve ~journal:j
          ~on_progress:(fun p -> prog := Some p)
          cfg ~caps)
  in
  Alcotest.(check (list (pair int (float 0.0))))
    "same curve" full (Dse.curve_points restored);
  (match !prog with
  | Some p -> Alcotest.(check int) "all restored" 2 p.Sweep.resumed
  | None -> Alcotest.fail "no progress report");
  Sys.remove path

(* Every verdict round-trips through both journal codecs with its
   constructor and cause, except [Timed_out], which is never journaled;
   an unknown cause and the older [failure "<text>"] / [skip "<text>"]
   forms are refused. *)
let test_verdict_codecs () =
  let cfg = Workloads.Gen.paper_t1 () in
  let causes =
    Mapping.
      [ Stalled; Iteration_limit; Unbounded; Uncertifiable; Non_finite; Exception ]
  in
  let failure cause =
    Mapping.Solver_failure { cause; detail = "two  words and a \"quote\"" }
  in
  let same a b =
    match (a, b) with
    | Mapping.Infeasible x, Mapping.Infeasible y -> x = y
    | Mapping.Solver_failure x, Mapping.Solver_failure y -> x.cause = y.cause
    | _ -> false
  in
  let errors =
    Mapping.Infeasible "no mapping" :: List.map failure causes
  in
  List.iter
    (fun e ->
      let name = Mapping.label e in
      match Durability.encode_outcome cfg (Error e) with
      | None -> Alcotest.failf "%s: not journaled" name
      | Some payload -> (
        match Durability.decode_outcome cfg ~candidate:cfg payload with
        | Some (Error d) ->
          Alcotest.(check bool) (name ^ " outcome") true (same e d);
          Alcotest.(check string) (name ^ " detail")
            (Format.asprintf "%a" Mapping.pp_error e)
            (Format.asprintf "%a" Mapping.pp_error d)
        | Some (Ok _) | None -> Alcotest.failf "%s: %S refused" name payload))
    errors;
  let point outcome = { Dse.cap = 3; outcome } in
  List.iter
    (fun outcome ->
      match Dse.encode_point (point outcome) with
      | None -> Alcotest.fail "point not journaled"
      | Some payload -> (
        match (outcome, Dse.decode_point 3 payload) with
        | Ok a, Some { Dse.cap = 3; outcome = Ok b } ->
          Alcotest.(check (option (float 0.0))) payload a b
        | Error a, Some { Dse.cap = 3; outcome = Error b } ->
          Alcotest.(check bool) payload true (same a b)
        | _ -> Alcotest.failf "%S decodes to another verdict" payload))
    (Ok (Some 1.5) :: Ok None
    :: List.map (fun c -> Error (failure c)) causes);
  Alcotest.(check (option string)) "timed-out candidate" None
    (Durability.encode_outcome cfg (Error (Mapping.Timed_out "late")));
  Alcotest.(check (option string)) "timed-out point" None
    (Dse.encode_point (point (Error (Mapping.Timed_out "late"))));
  List.iter
    (fun payload ->
      Alcotest.(check bool) payload true
        (Durability.decode_outcome cfg ~candidate:cfg payload = None))
    [
      {|failure "wedged" "detail"|};
      {|failure "stalled after 2 attempt(s) (base: stalled; relaxed: stalled); fallback LP disabled by fault plan"|};
    ];
  List.iter
    (fun payload ->
      Alcotest.(check bool) payload true (Dse.decode_point 3 payload = None))
    [ {|skip "wedged"|}; {|skip "uncaught exception: Failure(\"boom\")"|} ]

(* ------------------------------------------------------------------ *)
(* Warm starts: determinism across pool sizes and resumes              *)
(* ------------------------------------------------------------------ *)

(* [tradeoff] and [pareto] seed every candidate from one cold anchor
   solve (see Durability.warm_anchor); each [dse] candidate chains its
   probes' seeds through its own bisection.  Either way the seed — and
   every candidate's iteration trajectory — must be independent of
   solve order.  These pins hold the warm path to the same
   bit-identical standard as the cold one: --jobs 1 vs --jobs 4, and
   killed-and-resumed vs uninterrupted. *)

let check_tradeoff_points_identical expected actual =
  List.iter2
    (fun (a : Tradeoff.point) (b : Tradeoff.point) ->
      Alcotest.(check int) "cap" a.Tradeoff.cap b.Tradeoff.cap;
      match (a.Tradeoff.result, b.Tradeoff.result) with
      | Ok ra, Ok rb ->
        check_float 0.0 "objective" ra.Mapping.objective rb.Mapping.objective;
        check_float 0.0 "rounded objective" ra.Mapping.rounded_objective
          rb.Mapping.rounded_objective
      | Error ea, Error eb ->
        Alcotest.(check string) "same verdict" (Mapping.label ea)
          (Mapping.label eb)
      | _ -> Alcotest.fail "verdict differs")
    expected actual

let test_warm_sweep_jobs_determinism () =
  let cfg = Workloads.Gen.paper_t1 () in
  let buffers = Config.all_buffers cfg in
  let caps = [ 1; 2; 3; 4 ] in
  let seq = Tradeoff.capacity_sweep cfg ~buffers ~caps in
  Pool.with_pool ~domains:4 (fun pool ->
      let par = Tradeoff.capacity_sweep ~pool cfg ~buffers ~caps in
      check_tradeoff_points_identical seq par);
  (* The warm path changes the trajectory, never the answer: a cold
     solve of each capped clone reaches the same optima within solver
     tolerance. *)
  List.iter
    (fun (a : Tradeoff.point) ->
      let capped = Config.copy cfg in
      List.iter
        (fun b -> Config.set_max_capacity capped b (Some a.Tradeoff.cap))
        buffers;
      match (a.Tradeoff.result, Mapping.solve capped) with
      | Ok ra, Ok rb ->
        Alcotest.(check bool)
          "warm and cold optima agree" true
          (Float.abs (ra.Mapping.objective -. rb.Mapping.objective)
          <= 1e-4 *. (1.0 +. Float.abs rb.Mapping.objective))
      | Error ea, Error eb ->
        Alcotest.(check string) "same verdict" (Mapping.label ea)
          (Mapping.label eb)
      | _ -> Alcotest.fail "warm start changed a verdict")
    seq

let test_warm_dse_resume_bit_identical () =
  let cfg = Workloads.Gen.paper_t1 () in
  let caps = [ 1; 2; 3; 4 ] in
  let full, full_iterations =
    let obs, sink = Sweep_iterations.context () in
    let points = Dse.curve_points (Dse.throughput_curve ~obs cfg ~caps) in
    (points, Sweep_iterations.per_candidate sink)
  in
  let path = temp_journal () in
  let fp = Journal.fingerprint [ "warm-dse-resume" ] in
  (* Kill after the first candidate, then resume under a 4-domain pool:
     the curve, and the cone iterations of each candidate, must still
     be bit-identical to the uninterrupted sequential sweep. *)
  with_journal ~fingerprint:fp path (fun j ->
      let calls = ref 0 in
      let cancel () =
        incr calls;
        !calls > 1
      in
      let obs, sink = Sweep_iterations.context () in
      ignore (Dse.throughput_curve ~journal:j ~cancel ~obs cfg ~caps);
      Alcotest.(check (list (pair int int)))
        "killed sweep: candidate 0 iterations" [ List.hd full_iterations ]
        (Sweep_iterations.per_candidate sink));
  let prog = ref None in
  with_journal ~fingerprint:fp path (fun j ->
      Pool.with_pool ~domains:4 (fun pool ->
          let obs, sink = Sweep_iterations.context () in
          let points =
            Dse.throughput_curve ~journal:j ~pool ~obs
              ~on_progress:(fun p -> prog := Some p)
              cfg ~caps
          in
          Alcotest.(check (list (pair int (float 0.0))))
            "identical to the uninterrupted sweep" full
            (Dse.curve_points points);
          Alcotest.(check int) "resumed candidates' iterations"
            (List.fold_left (fun acc (_, n) -> acc + n) 0
               (List.tl full_iterations))
            (Sweep_iterations.total sink)));
  (match !prog with
  | Some p ->
    Alcotest.(check int) "restored 1" 1 p.Sweep.resumed;
    Alcotest.(check int) "re-solved 3" 3 p.Sweep.solved
  | None -> Alcotest.fail "no progress report");
  Sys.remove path

(* ------------------------------------------------------------------ *)
(* Drivers: deadlines                                                  *)
(* ------------------------------------------------------------------ *)

(* The [slow] fault injects a 0.5 s sleep into the first interior-point
   attempt, making a candidate deliberately slow without changing its
   answer. *)

let skipped = Mapping.skipped (fun (p : Tradeoff.point) -> (p.cap, p.result))

let test_tradeoff_candidate_deadline () =
  let cfg = Workloads.Gen.paper_t1 () in
  let buffers = Config.all_buffers cfg in
  let caps = [ 1; 2; 3 ] in
  let path = temp_journal () in
  let fp = Journal.fingerprint [ "candidate-deadline" ] in
  with_journal ~fingerprint:fp path (fun j ->
      let points =
        Tradeoff.capacity_sweep
          ~fault:(fault_plan "slow,only=1")
          ~candidate_deadline:0.2 ~journal:j cfg ~buffers ~caps
      in
      Alcotest.(check int) "every cap reported" 3 (List.length points);
      List.iter
        (fun (p : Tradeoff.point) ->
          match (p.Tradeoff.cap, p.Tradeoff.result) with
          | 2, Error (Mapping.Timed_out _) -> ()
          | 2, _ -> Alcotest.fail "slow candidate did not time out"
          | _, Ok _ -> ()
          | c, _ -> Alcotest.failf "cap %d should have solved" c)
        points;
      Alcotest.(check (list (pair int string))) "skipped summary"
        [ (2, "timed out") ]
        (skipped points));
  (* The timeout was not journaled: a resume with a healthy solver
     re-solves exactly that candidate and completes the sweep. *)
  let prog = ref None in
  with_journal ~fingerprint:fp path (fun j ->
      Alcotest.(check int) "only the verdicts were journaled" 2
        (List.length (Journal.entries j));
      let points =
        Tradeoff.capacity_sweep ~journal:j
          ~on_progress:(fun p -> prog := Some p)
          cfg ~buffers ~caps
      in
      Alcotest.(check int) "sweep completed" 3 (List.length points);
      Alcotest.(check (list (pair int string))) "no skips left" []
        (skipped points));
  (match !prog with
  | Some p ->
    Alcotest.(check int) "restored the two verdicts" 2 p.Sweep.resumed;
    Alcotest.(check int) "re-solved only the timeout" 1 p.Sweep.solved
  | None -> Alcotest.fail "no progress report");
  Sys.remove path

let test_tradeoff_sweep_deadline () =
  let cfg = Workloads.Gen.paper_t1 () in
  let buffers = Config.all_buffers cfg in
  let prog = ref None in
  let points =
    Tradeoff.capacity_sweep
      ~fault:(fault_plan "slow")
      ~deadline:(Deadline.after 0.2)
      ~on_progress:(fun p -> prog := Some p)
      cfg ~buffers ~caps:[ 1; 2; 3 ]
  in
  (* Candidate 0 starts before the deadline, times out in flight (the
     deadline is polled inside the interior-point loop); the rest are
     abandoned between candidates.  Either way the result is a
     well-formed partial sweep. *)
  match !prog with
  | None -> Alcotest.fail "no progress report"
  | Some p ->
    Alcotest.(check int) "all candidates accounted" 3
      (p.Sweep.resumed + p.Sweep.solved + p.Sweep.not_run);
    Alcotest.(check bool) "the deadline abandoned work" true
      (p.Sweep.not_run >= 1);
    Alcotest.(check int) "points = completed candidates"
      (p.Sweep.solved) (List.length points);
    List.iter
      (fun (pt : Tradeoff.point) ->
        match pt.Tradeoff.result with
        | Ok _ | Error (Mapping.Timed_out _) -> ()
        | Error e ->
          Alcotest.failf "unexpected verdict: %s" (Mapping.label e))
      points

let () =
  Alcotest.run "durable"
    [
      ( "crc",
        [
          Alcotest.test_case "check value" `Quick test_crc_check_value;
          Alcotest.test_case "update" `Quick test_crc_update;
        ] );
      ( "deadline",
        [
          Alcotest.test_case "basics" `Quick test_deadline_basics;
          Alcotest.test_case "combine and check" `Quick
            test_deadline_combine_and_check;
          Alcotest.test_case "invalid" `Quick test_deadline_invalid;
        ] );
      ( "journal",
        [
          Alcotest.test_case "roundtrip" `Quick test_journal_roundtrip;
          Alcotest.test_case "fingerprint mismatch" `Quick
            test_journal_fingerprint_mismatch;
          Alcotest.test_case "torn tail" `Quick test_journal_torn_tail;
          Alcotest.test_case "corrupt line" `Quick test_journal_corrupt_line;
          Alcotest.test_case "bad header" `Quick test_journal_bad_header;
          Alcotest.test_case "record validation" `Quick
            test_journal_record_validation;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "restore and solve" `Quick
            test_sweep_restores_and_solves;
          Alcotest.test_case "encode none" `Quick
            test_sweep_encode_none_not_journaled;
          Alcotest.test_case "cancelled" `Quick test_sweep_cancelled_before_start;
          Alcotest.test_case "expired deadline" `Quick
            test_sweep_expired_deadline;
          Alcotest.test_case "failed candidate" `Quick test_sweep_barrier;
          Alcotest.test_case "restored slots emit no verdict" `Quick
            test_sweep_restored_no_candidate;
          Alcotest.test_case "candidate deadline" `Quick
            test_sweep_candidate_deadline;
          Alcotest.test_case "pool determinism" `Quick
            test_sweep_pool_matches_sequential;
        ] );
      ( "pool",
        [ Alcotest.test_case "cancel" `Quick test_pool_cancel_wellformed ] );
      ( "drivers",
        [
          Alcotest.test_case "dse resume solves n-k" `Quick
            test_dse_resume_exact_solves;
          Alcotest.test_case "tradeoff resume" `Quick
            test_tradeoff_resume_restores_results;
          Alcotest.test_case "tradeoff resume from old payloads" `Quick
            test_tradeoff_resume_old_payload;
          Alcotest.test_case "pareto resume from k records" `Quick
            test_pareto_resume_truncated;
          Alcotest.test_case "pareto journal from old payloads" `Quick
            test_pareto_old_journal_resolved;
          Alcotest.test_case "dse resume from cert payloads" `Quick
            test_dse_cert_payload_restores;
          Alcotest.test_case "verdict codecs" `Quick test_verdict_codecs;
          Alcotest.test_case "warm sweep jobs determinism" `Quick
            test_warm_sweep_jobs_determinism;
          Alcotest.test_case "warm dse resume bit-identical" `Quick
            test_warm_dse_resume_bit_identical;
          Alcotest.test_case "candidate deadline" `Slow
            test_tradeoff_candidate_deadline;
          Alcotest.test_case "sweep deadline" `Slow
            test_tradeoff_sweep_deadline;
        ] );
    ]
