(* perfbench: the budgetbuf benchmark.  Run from the root of a checkout
   after building (perfbench/run.sh does both):

     perfbench --workload NAME --seed N --seconds S --trace 0|1

   --trace 0 measures the end-to-end metrics with tracing off; --trace 1
   replays the workload's ops traced and prints the per-layer table.
   The last line of output is the JSON result. *)

let exe = "_build/default/bin/budgetbuf_cli.exe"

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s); exit 2) fmt

let command_output cmd =
  let ic = Unix.open_process_in cmd in
  let s = In_channel.input_all ic in
  match Unix.close_process_in ic with Unix.WEXITED 0 -> Some (String.trim s) | _ -> None

(* Sources of the program under test and of the benchmark's inputs, so
   a stored mapping digest is only ever compared with one from the same
   code. *)
let source_digest () =
  let rec files dir =
    List.concat_map
      (fun f ->
        let p = Filename.concat dir f in
        if Sys.is_directory p then files p else [ p ])
      (List.sort compare (Array.to_list (Sys.readdir dir)))
  in
  Digest.to_hex
    (Digest.string
       (String.concat ""
          (List.map (fun p -> p ^ Digest.file p) (files "lib" @ files "bin" @ files "perfbench"))))

(* Mapping digests must not change between runs of the same code on the
   same seed; both admit workloads share one, since their requests are
   the same. *)
let check_digest ~workload ~seed ~source digest =
  let key = if String.starts_with ~prefix:"admit-" workload then "admit" else workload in
  let dir = "_perfbench/digests" in
  Proc.mkdir_p dir;
  let path = Printf.sprintf "%s/%s-seed%d-%s" dir key seed source in
  match Proc.read_file path with
  | stored when stored = digest -> []
  | stored ->
    [ Printf.sprintf "mapping digest %s differs from %s of an earlier run of this code" digest stored ]
  | exception Sys_error _ ->
    Proc.write_file path digest;
    []

let timed f =
  let t0 = Proc.now () in
  let r = f () in
  (r, Proc.now () -. t0)

let setups = 5

let run_one_shot ctx ~workload ~seed ~seconds =
  let runs = List.init setups (fun _ -> timed (fun () -> Oneshot.setup ctx ~workload ~seed)) in
  let (prepared, warm_up), _ = List.nth runs (setups - 1) in
  let passes, elapsed = Oneshot.measure ctx prepared ~seconds in
  Oneshot.summarize ~passes ~elapsed ~setups:(List.map snd runs) ~warm_up

let run_admit ctx ~workload ~seed ~seconds =
  let isolate = workload = "admit-isolated" in
  let setup_once () =
    match timed (Admit.setup ctx ~isolate ~seed ~seconds) with
    | Error e, _ -> die "set-up failed: %s" e
    | Ok r, dt -> (r, dt)
  in
  let earlier = List.init (setups - 1) (fun _ ->
    let (_, pid), dt = setup_once () in
    ignore (Admit.stop ctx pid);
    dt)
  in
  let (stream, pid), dt = setup_once () in
  let replies, elapsed =
    timed (fun () ->
        Admit.drive (Admit.socket ctx) stream ~min_ops:Admit.prefix
          ~until:(Proc.now () +. seconds))
  in
  let rss_mb = float_of_int (Proc.tree_hwm_kb pid) /. 1024.0 in
  let code = Admit.stop ctx pid in
  let o = Admit.summarize stream replies ~elapsed ~setups:(earlier @ [ dt ]) ~rss_mb in
  if code = 0 then o
  else { o with problems = o.problems @ [ Printf.sprintf "serve exited with %d" code ] }

(* --trace 1: one set-up, then the traced replay and its table. *)
let run_traced ctx ~workload ~seed ~jobs =
  let acc, attempted, failed, problems =
    if String.starts_with ~prefix:"admit-" workload then begin
      let isolate = workload = "admit-isolated" in
      let acc, stream, replies = Layers.admit ctx ~jobs ~isolate ~seed in
      let o = Admit.summarize stream replies ~elapsed:1.0 ~setups:[ 0.0 ] ~rss_mb:0.0 in
      (acc, o.attempted, o.failed, o.problems)
    end
    else begin
      let prepared, warm_up = Oneshot.setup ctx ~workload ~seed in
      let acc, passes = Layers.one_shot ctx prepared in
      (* The traced pass must return what the untraced one did. *)
      let o = Oneshot.summarize ~passes ~elapsed:1.0 ~setups:[ 0.0 ] ~warm_up in
      (acc, o.attempted, o.failed, o.problems)
    end
  in
  let problems =
    problems
    @ List.filter_map
        (fun k ->
          if Layers.count acc k > 0.0 then Some (Printf.sprintf "%s: %g" k (Layers.count acc k))
          else None)
        [ "missing_mappings"; "unmatched_requests" ]
  in
  Layers.print_table ~workload acc;
  List.iter (Printf.printf "  INCORRECT: %s\n") problems;
  Layers.write_spans acc (Filename.concat ctx.Oneshot.dir "spans.jsonl");
  print_endline
    (Outcome.result_line ~correct:(problems = []) ~attempted ~failed (Layers.metrics acc))

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S length of the measured phase");
      ("--trace", Arg.Set_int trace, "0|1 per-layer traced run");
    ]
    (fun a -> die "unexpected argument %s" a)
    "perfbench --workload NAME --seed N --seconds S --trace 0|1";
  let workload = !workload and seed = !seed and seconds = !seconds in
  if not (List.mem workload Spec.workloads) then
    die "unknown workload %S (one of %s)" workload (String.concat ", " Spec.workloads);
  (match
     List.filter (fun v -> Sys.getenv_opt v <> None) [ "BUDGETBUF_FAULT"; "BUDGETBUF_CHAOS" ]
   with
  | [] -> ()
  | vars -> die "refusing to run: %s would inject faults into the program under test"
              (String.concat " and " vars));
  if not (Sys.file_exists exe && Sys.file_exists "lib" && Sys.file_exists "bin") then
    die "run from the root of a built budgetbuf checkout (see perfbench/run.sh)";
  let nproc = Domain.recommended_domain_count () in
  (* One pool domain for every workload.  On a two-core machine whose
     speed drifts with its neighbours' load, a second domain made runs
     two to three times noisier: a stop-the-world collection waits for
     the slower core.  serve still dispatches its solves through the
     pool, so the pool layer is measured on the admit workloads. *)
  let jobs = 1 in
  let source = source_digest () in
  Printf.printf
    "perfbench workload=%s seed=%d seconds=%g trace=%d nproc=%d BUDGETBUF_JOBS=%d \
     ocaml=%s commit=%s source=%s\n%!"
    workload seed seconds !trace nproc jobs Sys.ocaml_version
    (if Sys.file_exists ".git" then
       Option.value ~default:"unknown" (command_output "git rev-parse HEAD 2>/dev/null")
     else "none")
    source;
  let ctx =
    {
      Oneshot.exe;
      env = Proc.environment ~jobs;
      dir = Printf.sprintf "_perfbench/%s-seed%d" workload seed;
    }
  in
  if !trace = 1 then run_traced ctx ~workload ~seed ~jobs
  else begin
    let outcome =
      if String.starts_with ~prefix:"admit-" workload then
        run_admit ctx ~workload ~seed ~seconds
      else run_one_shot ctx ~workload ~seed ~seconds
    in
    let outcome =
      { outcome with
        problems = outcome.problems @ check_digest ~workload ~seed ~source outcome.digest }
    in
    Outcome.print_table ~workload outcome;
    print_endline
      (Outcome.result_line ~correct:(outcome.problems = []) ~attempted:outcome.attempted
         ~failed:outcome.failed (Outcome.end_to_end outcome))
  end
