(* The one-shot workloads: every op is one budgetbuf process (solve,
   tradeoff, dse or tighten), run sequentially from a single client. *)

module Config = Taskgraph.Config

type ctx = { exe : string; env : string array; dir : string }

type prepared = {
  op : Inputs.op;
  label : string;
  cfg : Config.t;
  cfg_path : string;
  map_path : string;
  out_path : string;
}

type verdict =
  | Ok_op of { mapping : Check.mapping option; digest : string }
  | Failed of string  (** the op failed: exit code, certificate, skipped points *)
  | Wrong of string  (** the op succeeded but its output is wrong *)

type run = { p : prepared; exit : Proc.exit; out : string; verdict : verdict }

let prepare ctx ops =
  List.map
    (fun (op : Inputs.op) ->
      let label = Inputs.kind_name op.kind ^ "-" ^ op.inst.name in
      let path ext = Filename.concat ctx.dir (label ^ ext) in
      let cfg_path = Filename.concat ctx.dir (op.inst.name ^ ".cfg") in
      Proc.write_file cfg_path op.inst.text;
      {
        op;
        label;
        cfg = Taskgraph.Parse.config_of_string op.inst.text;
        cfg_path;
        map_path = path ".map";
        out_path = path ".out";
      })
    ops

(* The command line of an op.  No solver knob is ever passed: the
   benchmark measures the program's defaults. *)
let args p =
  match p.op.kind with
  | Inputs.Solve -> [ "solve"; p.cfg_path; "-o"; p.map_path ]
  | Tradeoff -> [ "tradeoff"; p.cfg_path; "--caps"; "1:10"; "--certify" ]
  | Dse -> [ "dse"; p.cfg_path; "--caps"; "1:10"; "--certify" ]
  | Tighten -> [ "tighten"; p.cfg_path; "-o"; p.map_path ]

(* Sweep tables minus the lines that name files. *)
let table out =
  String.concat "\n"
    (List.filter
       (fun l ->
         not
           (String.starts_with ~prefix:"trace written to" l
           || String.starts_with ~prefix:"mapping written to" l))
       (Check.lines out))

let check p (x : Proc.exit) out =
  let line prefix = Check.find_line ~prefix out in
  let mapping () =
    match Check.mapping p.cfg (Proc.read_file p.map_path) with
    | Error e -> Error (Wrong e)
    | Ok m -> Ok m
    | exception Sys_error e -> Error (Wrong e)
  in
  (* [None] when the line is there and its value passes [want]. *)
  let disagrees prefix fmt ~want =
    match line prefix with
    | None -> Some ("no '" ^ prefix ^ "' line")
    | Some l -> (
      match Scanf.sscanf l fmt Fun.id with
      | v when want v -> None
      | _ -> Some l
      | exception _ -> Some l)
  in
  if x.code <> 0 then
    Failed
      (Printf.sprintf "exit %d: %s" x.code
         (String.trim
            (try Proc.read_file (p.out_path ^ ".err") with Sys_error _ -> "")))
  else
    match p.op.kind with
    | Inputs.Solve | Tighten -> (
      match line "certificate: " with
      | None -> Wrong "no certificate line"
      | Some l when not (Check.exact_certificate (Check.after ~prefix:"certificate: " l)) ->
        Failed l
      | Some _ when p.op.kind = Solve && line "verification: ok" = None ->
        Failed "verification problems"
      | Some _ -> (
        match mapping () with
        | Error v -> v
        | Ok m ->
          let mismatch =
            if p.op.kind = Solve then
              disagrees "objective: " "objective: continuous %_f, rounded %f"
                ~want:(Check.close_to m.objective)
            else
              disagrees "analytic: "
                "analytic: %_d containers, simulated: %d containers"
                ~want:(( = ) m.containers)
          in
          match mismatch with
          | None -> Ok_op { mapping = Some m; digest = Digest.to_hex (Digest.string m.text) }
          | Some e -> Wrong e))
    | Tradeoff | Dse -> (
      match line "skipped:" with
      | Some l -> Failed l
      | None -> (
        match line "certified: " with
        | None -> Wrong "no certified line"
        | Some l -> (
          match Scanf.sscanf l "certified: %d/%d" (fun a b -> (a, b)) with
          | a, b when a = b && b > 0 ->
            Ok_op { mapping = None; digest = Digest.to_hex (Digest.string (table out)) }
          | _ -> Failed l
          | exception _ -> Wrong l)))

let run_op ctx ?trace p =
  let trace_args = match trace with None -> [] | Some f -> [ "--trace"; f ] in
  let exit = Proc.run ~exe:ctx.exe ~env:ctx.env ~out:p.out_path (args p @ trace_args) in
  let out = try Proc.read_file p.out_path with Sys_error _ -> "" in
  { p; exit; out; verdict = check p exit out }

let pass_digest runs =
  Check.digest
    (List.map
       (fun r ->
         ( r.p.label,
           match r.verdict with Ok_op { digest; _ } -> digest | Failed _ | Wrong _ -> "failed" ))
       runs)

(* Set-up: generate the inputs, write and parse them, and warm up with
   the smallest op.  Returns the prepared ops and the warm-up run. *)
let setup ctx ~workload ~seed =
  Proc.remove_tree ctx.dir;
  Proc.mkdir_p ctx.dir;
  let ops = Option.get (Inputs.one_shot ~seed workload) in
  let prepared = prepare ctx ops in
  let size p = (String.length p.op.inst.text, p.op.kind) in
  let smallest =
    List.fold_left (fun a b -> if size b < size a then b else a) (List.hd prepared) prepared
  in
  (prepared, run_op ctx smallest)

(* Whole passes over the ops until [seconds] have elapsed, so every run
   measures the same mix. *)
let measure ctx prepared ~seconds =
  let t0 = Proc.now () in
  let rec go acc =
    let acc = List.map (run_op ctx) prepared :: acc in
    let elapsed = Proc.now () -. t0 in
    if elapsed >= seconds then (List.rev acc, elapsed) else go acc
  in
  go []

(* Each op's mean latency over the passes: the ops of a pass differ by
   orders of magnitude, so the median is taken over ops, and averaging
   an op's passes keeps one slow moment of the machine from deciding
   it. *)
let op_means runs =
  let by_label = Hashtbl.create 32 in
  List.iter
    (fun r ->
      Hashtbl.replace by_label r.p.label
        (r.exit.wall_s :: Option.value ~default:[] (Hashtbl.find_opt by_label r.p.label)))
    runs;
  List.sort compare
    (Hashtbl.fold
       (fun label ws acc ->
         (label, 1000.0 *. Stats.sum ws /. float_of_int (List.length ws)) :: acc)
       by_label [])

let summarize ~passes ~elapsed ~setups ~warm_up =
  let runs = List.concat passes in
  let first = List.hd passes in
  let reasons f = List.filter_map (fun r -> Option.map (fun e -> r.p.label ^ ": " ^ e) (f r.verdict)) runs in
  let failures = reasons (function Failed e -> Some e | _ -> None) in
  let wrong = reasons (function Wrong e -> Some e | _ -> None) in
  let digests = List.sort_uniq compare (List.map pass_digest passes) in
  let mappings =
    List.filter_map
      (fun r -> match r.verdict with Ok_op { mapping; _ } -> mapping | _ -> None)
      first
  in
  let has_mappings =
    List.exists (fun r -> r.p.op.kind = Solve || r.p.op.kind = Tighten) first
  in
  {
    Outcome.attempted = List.length runs;
    failed = List.length failures;
    failures;
    latencies_ms = List.map snd (op_means runs);
    op_ms = op_means runs;
    elapsed_s = elapsed;
    setups_s = setups;
    peak_rss_mb =
      float_of_int (List.fold_left (fun m r -> max m r.exit.maxrss_kb) 0 runs) /. 1024.0;
    containers_total =
      (if has_mappings then
         Some (List.fold_left (fun a (m : Check.mapping) -> a + m.containers) 0 mappings)
       else None);
    objective_total =
      (if has_mappings then
         Some (List.fold_left (fun a (m : Check.mapping) -> a +. m.objective) 0.0 mappings)
       else None);
    digest = List.hd digests;
    problems =
      wrong
      @ (match warm_up.verdict with
        | Ok_op _ -> []
        | Failed e | Wrong e -> [ "warm-up " ^ warm_up.p.label ^ ": " ^ e ])
      @
      if List.length digests > 1 then
        [ Printf.sprintf "mapping digest differs between the %d passes" (List.length passes) ]
      else [];
  }
