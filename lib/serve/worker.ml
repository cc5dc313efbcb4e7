(* The isolated solve worker: one disposable process per supervisor
   slot, speaking Obs.Json frames on stdin/stdout.

   Both directions of the pipe protocol are defined here so the
   supervisor and the worker cannot drift apart: the hello the worker
   sends on startup (carrying [Protocol.version] so a stale binary is
   caught at spawn, not mid-solve), the task lines the supervisor
   writes, and the reply lines the worker answers with.

   The worker is deliberately dumb: read one task, solve it (or
   execute its process fault), write one reply, repeat until EOF, exit
   0.  Everything stateful — the cache, the admission registry, the
   quarantine — lives in the supervisor's process; a worker that dies
   takes nothing with it but its own in-flight solve.  Process faults
   ([crash], [hang], [oom]) are executed here, which is what makes
   them safe to request: the blast radius is this process, under the
   rlimits the supervisor armed. *)

module Json = Obs.Json
module Mapping = Budgetbuf.Mapping

(* ---- pipe protocol ----------------------------------------------- *)

let hello_line () =
  Json.render
    [
      ("ev", Json.String "hello");
      ("v", Json.Int Protocol.version);
      ("pid", Json.Int (Unix.getpid ()));
    ]

let parse_hello line =
  match Json.parse line with
  | Error msg -> Error (Printf.sprintf "malformed worker hello: %s" msg)
  | Ok obj -> (
    match (Json.str obj "ev", Json.int obj "v", Json.int obj "pid") with
    | Some "hello", Some v, Some pid ->
      if v = Protocol.version then Ok pid
      else
        Error
          (Printf.sprintf
             "protocol version mismatch: worker speaks v%d, supervisor speaks \
              v%d" v Protocol.version)
    | _ -> Error "malformed worker hello")

type task = {
  task_id : string;
  task_config : string;
  task_fault : string option;
  task_deadline_s : float option;
}

let task_line t =
  Json.render
    ([ ("id", Json.String t.task_id) ]
    @ (match t.task_fault with
      | Some f -> [ ("fault", Json.String f) ]
      | None -> [])
    @ (match t.task_deadline_s with
      | Some s -> [ ("deadline_s", Json.Number s) ]
      | None -> [])
    @ [ ("config", Json.String t.task_config) ])

let parse_task line =
  match Json.parse line with
  | Error msg -> Error (Printf.sprintf "malformed task: %s" msg)
  | Ok obj -> (
    match (Json.str obj "id", Json.str obj "config") with
    | Some task_id, Some task_config ->
      Ok
        {
          task_id;
          task_config;
          task_fault = Json.str obj "fault";
          task_deadline_s = Json.number obj "deadline_s";
        }
    | _ -> Error "malformed task: missing id or config")

type reply =
  | R_solved of {
      mapping : string;
      certificate : string;
      objective : float;
      rounded_objective : float;
      attempts : int;
      solve_s : float;
    }
  | R_unsat of string
  | R_late of string
  | R_failed of string

let reply_line ~id reply =
  let id = ("id", Json.String id) in
  let verdict status reason =
    Json.render
      [ ("status", Json.String status); id; ("reason", Json.String reason) ]
  in
  match reply with
  | R_solved { mapping; certificate; objective; rounded_objective; attempts;
               solve_s } ->
    Json.render
      [
        ("status", Json.String "solved");
        id;
        ("mapping", Json.String mapping);
        ("certificate", Json.String certificate);
        ("objective", Json.Number objective);
        ("rounded_objective", Json.Number rounded_objective);
        ("attempts", Json.Int attempts);
        ("solve_s", Json.Number solve_s);
      ]
  | R_unsat reason -> verdict "unsat" reason
  | R_late reason -> verdict "late" reason
  | R_failed reason -> verdict "failed" reason

let parse_reply line =
  match Json.parse line with
  | Error msg -> Error (Printf.sprintf "malformed worker reply: %s" msg)
  | Ok obj -> (
    let reason () =
      match Json.str obj "reason" with Some r -> r | None -> "missing reason"
    in
    match Json.str obj "status" with
    | Some "solved" -> (
      match
        ( Json.str obj "mapping",
          Json.str obj "certificate",
          Json.number obj "objective",
          Json.number obj "rounded_objective",
          Json.int obj "attempts",
          Json.number obj "solve_s" )
      with
      | ( Some mapping,
          Some certificate,
          Some objective,
          Some rounded_objective,
          Some attempts,
          Some solve_s ) ->
        Ok
          (R_solved
             {
               mapping;
               certificate;
               objective;
               rounded_objective;
               attempts;
               solve_s;
             })
      | _ -> Error "malformed worker reply: incomplete solved fields")
    | Some "unsat" -> Ok (R_unsat (reason ()))
    | Some "late" -> Ok (R_late (reason ()))
    | Some "failed" -> Ok (R_failed (reason ()))
    | Some s -> Error (Printf.sprintf "malformed worker reply: status %S" s)
    | None -> Error "malformed worker reply: missing status")

(* ---- worker-side execution --------------------------------------- *)

let write_line fd line =
  let line = line ^ "\n" in
  let len = String.length line in
  let pos = ref 0 in
  while !pos < len do
    pos := !pos + Unix.write_substring fd line !pos (len - !pos)
  done

(* The OOM fault: allocate (and touch) memory until either the rlimit
   kills the process or [Out_of_memory] escapes.  A 1 GiB safety cap
   bounds the damage when no rlimit is armed — reaching it without
   dying means the fault could not be expressed, so exit nonzero
   anyway: the supervisor must see a crash either way. *)
let oom () =
  let chunk = 8 * 1024 * 1024 in
  let hold = ref [] in
  for _ = 1 to 128 do
    hold := Bytes.make chunk 'x' :: !hold
  done;
  ignore (List.length !hold);
  exit 2

(* ---- the one solve path ------------------------------------------ *)

let parse ~config ~fault =
  match Taskgraph.Parse.config_of_string config with
  | exception Taskgraph.Parse.Parse_error (line, msg) ->
    Error (Printf.sprintf "config line %d: %s" line msg)
  | cfg -> (
    match fault with
    | None -> Ok (cfg, None)
    | Some spec -> (
      match Robust.Fault.of_string spec with
      | Ok plan -> Ok (cfg, Some plan)
      | Error _ as e -> e))

let solve ?obs ~deadline cfg plan =
  (* An admit's fault spec replaces BUDGETBUF_FAULT; without one the
     solve reads the environment. *)
  let fault = Option.map Option.some plan in
  match Mapping.solve ~deadline ?fault ?obs cfg with
  | Ok r when not (Budgetbuf.Certify.certified r.certificate) ->
    (* A refuted mapping is never admitted, and so never memoised. *)
    R_failed (Budgetbuf.Certify.summary r.certificate)
  | Ok r ->
    R_solved
      {
        mapping = Format.asprintf "%a" (Taskgraph.Mapped_io.print cfg) r.mapped;
        certificate = Budgetbuf.Certify.summary r.certificate;
        objective = r.objective;
        rounded_objective = r.rounded_objective;
        attempts = r.stats.attempts;
        solve_s = r.stats.solve_time_s;
      }
  | Error (Mapping.Infeasible msg) -> R_unsat msg
  | Error (Mapping.Timed_out msg) -> R_late msg
  | Error (Mapping.Solver_failure { detail; _ }) -> R_failed detail
  | exception exn -> R_failed (Printexc.to_string exn)

(* A task is the shared parse step, the process fault it asks for —
   fired before the solve: it models native crashes and livelocks,
   which do not wait for the solver to finish — and the shared solve
   step.  A budget that lapsed in transit arrives as [deadline_s <= 0]
   and yields an already-expired deadline: the solve answers [late]
   exactly as an in-process solve of a lapsed job does. *)
let run_task task =
  match parse ~config:task.task_config ~fault:task.task_fault with
  | Error reason -> R_failed reason
  | Ok (cfg, plan) ->
    (match Robust.Fault.process_kind plan with
    | Some Robust.Fault.Crash -> Unix.kill (Unix.getpid ()) Sys.sigkill
    | Some Robust.Fault.Hang ->
      while true do
        Unix.sleepf 3600.0
      done
    | Some Robust.Fault.Oom -> oom ()
    | None -> ());
    let deadline =
      match task.task_deadline_s with
      | Some s -> Durable.Deadline.of_remaining_s s
      | None -> Durable.Deadline.none
    in
    solve ~deadline cfg plan

(* The hidden [budgetbuf worker] entry point.  argv is the full
   [Sys.argv] list; the worker takes no flags, so anything after
   "worker" is a usage error.  Exit 0 on EOF — the supervisor closed
   our stdin — and 2 on a usage error. *)
let main argv =
  match argv with
  | _exe :: "worker" :: arg :: _ ->
    prerr_endline (Printf.sprintf "worker: unknown argument %S" arg);
    2
  | _ -> (
    ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore);
    write_line Unix.stdout (hello_line ());
    let frames = Wire.Framer.create () in
    let scratch = Bytes.create 4096 in
    let rec serve () =
      match Wire.Framer.next frames with
      | Some (Wire.Framer.Frame line) ->
        let id, reply =
          match parse_task line with
          | Error reason -> ("", R_failed reason)
          | Ok task -> (task.task_id, run_task task)
        in
        write_line Unix.stdout (reply_line ~id reply);
        serve ()
      | Some Wire.Framer.Oversized ->
        write_line Unix.stdout (reply_line ~id:"" (R_failed "oversized task"));
        serve ()
      | None -> (
        match Unix.read Unix.stdin scratch 0 (Bytes.length scratch) with
        | 0 -> 0
        | n ->
          Wire.Framer.feed frames (Bytes.sub_string scratch 0 n);
          serve ()
        | exception Unix.Unix_error _ -> 0)
    in
    match serve () with
    | code -> code
    | exception Unix.Unix_error (Unix.EPIPE, _, _) -> 0)
