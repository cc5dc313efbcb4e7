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
    ]

let parse_hello line =
  match Json.parse line with
  | Error msg -> Error (Printf.sprintf "malformed worker hello: %s" msg)
  | Ok obj -> (
    match (Json.str obj "ev", Json.int obj "v") with
    | Some "hello", Some v ->
      if v = Protocol.version then Ok ()
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
  | Solved of { solved : Protocol.solved; attempts : int; solve_s : float }
  | Unsat of string
  | Late of string
  | Failed of { cause : Protocol.cause; reason : string }

let reply_line ~id reply =
  let frame status fields =
    Json.render
      (("status", Json.String status) :: ("id", Json.String id) :: fields)
  in
  match reply with
  | Solved { solved; attempts; solve_s } ->
    frame "solved"
      (Protocol.solved_fields solved
      @ [ ("attempts", Json.Int attempts); ("solve_s", Json.Number solve_s) ])
  | Unsat reason -> frame "unsat" [ ("reason", Json.String reason) ]
  | Late reason -> frame "late" [ ("reason", Json.String reason) ]
  | Failed { cause; reason } ->
    frame "failed" (Protocol.failure_fields cause reason)

let ( let* ) = Result.bind

let parse_reply line =
  Result.map_error (fun msg -> "malformed worker reply: " ^ msg)
  @@ let* obj = Json.parse line in
     let field get kind k =
       Option.to_result (get obj k)
         ~none:(Printf.sprintf "missing or non-%s field %S" kind k)
     in
     let reason () = field Json.str "string" "reason" in
     match Json.str obj "status" with
     | Some "solved" ->
       let* solved = Protocol.solved_of_fields obj in
       let* attempts = field Json.int "integer" "attempts" in
       let* solve_s = field Json.number "number" "solve_s" in
       Ok (Solved { solved; attempts; solve_s })
     | Some "unsat" -> Result.map (fun r -> Unsat r) (reason ())
     | Some "late" -> Result.map (fun r -> Late r) (reason ())
     | Some "failed" ->
       let* cause, reason = Protocol.failure_of_fields obj in
       Ok (Failed { cause; reason })
     | Some s -> Error (Printf.sprintf "status %S" s)
     | None -> Error "missing status"

let solver_failure cause reason =
  Failed { cause = Protocol.Solver cause; reason }

let exception_failure = solver_failure Mapping.Exception

(* ---- worker-side execution --------------------------------------- *)

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
    | Some spec ->
      Result.map (fun plan -> (cfg, Some plan)) (Robust.Fault.of_string spec))

let solve ?obs ~deadline cfg plan =
  (* An admit's fault spec replaces BUDGETBUF_FAULT; without one the
     solve reads the environment. *)
  let fault = Option.map Option.some plan in
  match Mapping.solve ~deadline ?fault ?obs cfg with
  | Ok r when not (Budgetbuf.Certify.certified r.certificate) ->
    (* A refuted mapping is never admitted, and so never memoised. *)
    solver_failure Mapping.Uncertifiable
      (Budgetbuf.Certify.summary r.certificate)
  | Ok r ->
    Solved
      {
        solved =
          {
            mapping =
              Format.asprintf "%a" (Taskgraph.Mapped_io.print cfg) r.mapped;
            certificate = Budgetbuf.Certify.summary r.certificate;
            objective = r.objective;
            rounded_objective = r.rounded_objective;
          };
        attempts = r.stats.attempts;
        solve_s = r.stats.solve_time_s;
      }
  | Error (Mapping.Infeasible msg) -> Unsat msg
  | Error (Mapping.Timed_out msg) -> Late msg
  | Error (Mapping.Solver_failure { cause; detail }) ->
    solver_failure cause detail
  | exception exn -> exception_failure (Printexc.to_string exn)

(* A task is the shared parse step, the process fault it asks for —
   fired before the solve: it models native crashes and livelocks,
   which do not wait for the solver to finish — and the shared solve
   step.  A budget that lapsed in transit arrives as [deadline_s <= 0]
   and yields an already-expired deadline: the solve answers [late]
   exactly as an in-process solve of a lapsed job does. *)
let run_task task =
  match parse ~config:task.task_config ~fault:task.task_fault with
  | Error reason -> exception_failure reason
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
    Wire.write_line Unix.stdout (hello_line ());
    let frames = Wire.Framer.create () in
    let scratch = Bytes.create 4096 in
    let rec serve () =
      match Wire.Framer.next frames with
      | Some (Wire.Framer.Frame line) ->
        let id, reply =
          match parse_task line with
          | Error reason -> ("", exception_failure reason)
          | Ok task -> (task.task_id, run_task task)
        in
        Wire.write_line Unix.stdout (reply_line ~id reply);
        serve ()
      | Some Wire.Framer.Oversized ->
        Wire.write_line Unix.stdout
          (reply_line ~id:"" (exception_failure "oversized task"));
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
