(* The worker-process supervisor: crash containment for the solve
   path.

   [slots] disposable [budgetbuf worker] processes, each spawned under
   optional setrlimit memory/CPU caps (armed by a thin /bin/sh
   [ulimit] wrapper — the OCaml stdlib exposes no setrlimit — that
   [exec]s the worker, so the pid create_process returns IS the
   worker).  A solve acquires a worker, writes one task frame, and
   waits for one reply frame with a budget of deadline + grace;
   whatever goes wrong is contained:

   - worker writes a reply  → [Done], worker returns to the idle pool
   - worker dies mid-solve  → [Crashed "signal 9"/"exit 2"], slot respawns
   - worker exceeds budget  → SIGKILL, [Reaped], slot respawns
   - crash storm            → the circuit breaker stops respawning and
                              answers [Unavailable] until a cooldown
                              elapses, so a poisoned workload cannot
                              make the supervisor fork-bomb the host

   Respawning after a crash backs off exponentially with
   deterministic seeded jitter (Robust.Fault.det_float keyed on the
   spawn ordinal), the same discipline the resilient client uses — a
   given seed replays the same pacing byte for byte.

   Thread-safety: the pool is shared by every dispatcher lane.  All
   mutable state lives under [lock]; a worker's pipe fds are touched
   only by the lane that acquired it (or by [shutdown], which first
   marks the pool stopping). *)

type config = {
  slots : int;
  exe : string;  (* the budgetbuf binary to exec in worker mode *)
  rlimit_mem_mb : int option;
  rlimit_cpu_s : int option;
  grace_s : float;  (* reply budget past the task deadline *)
  no_deadline_timeout_s : float;  (* reply budget when the task has none *)
  hello_timeout_s : float;
  breaker_threshold : int;  (* consecutive crashes that open the breaker *)
  breaker_cooldown_s : float;
  backoff_base_s : float;
  backoff_cap_s : float;
  seed : int;
  obs : Obs.Ctx.t option;
  log : (string -> unit) option;
}

let default_config ~exe =
  {
    slots = 1;
    exe;
    rlimit_mem_mb = None;
    rlimit_cpu_s = None;
    grace_s = 0.5;
    no_deadline_timeout_s = 3600.0;
    hello_timeout_s = 10.0;
    breaker_threshold = 5;
    breaker_cooldown_s = 5.0;
    backoff_base_s = 0.05;
    backoff_cap_s = 1.0;
    seed = 0;
    obs = None;
    log = None;
  }

type worker = {
  slot : int;
  pid : int;
  to_worker : Unix.file_descr;
  from_worker : Unix.file_descr;
  frames : Wire.Framer.t;
  mutable solves : int;
}

type counters = {
  spawned : int;
  crashed : int;
  reaped : int;
  breaker_trips : int;
}

type t = {
  cfg : config;
  lock : Mutex.t;
  avail : Condition.t;
  mutable idle : worker list;
  mutable busy : int;  (* acquired workers + slots reserved for a spawn *)
  mutable live : worker list;  (* every spawned, not-yet-removed worker *)
  mutable crashes_in_row : int;
  mutable breaker_until : float;  (* absolute; 0.0 = closed *)
  mutable spawn_ordinal : int;
  mutable stopping : bool;
  mutable spawned : int;
  mutable crashed : int;
  mutable reaped_n : int;
  mutable breaker_trips : int;
}

type outcome =
  | Done of Worker.reply
  | Crashed of string
  | Reaped
  | Unavailable of string

let emit t ev = match t.cfg.obs with Some ctx -> Obs.Ctx.emit ctx ev | None -> ()

let log t fmt =
  Printf.ksprintf
    (fun s -> match t.cfg.log with Some f -> f s | None -> ())
    fmt

let create cfg =
  if cfg.slots < 1 then
    invalid_arg "Serve.Supervisor.create: slots must be >= 1";
  if cfg.breaker_threshold < 1 then
    invalid_arg "Serve.Supervisor.create: breaker_threshold must be >= 1";
  {
    cfg;
    lock = Mutex.create ();
    avail = Condition.create ();
    idle = [];
    busy = 0;
    live = [];
    crashes_in_row = 0;
    breaker_until = 0.0;
    spawn_ordinal = 0;
    stopping = false;
    spawned = 0;
    crashed = 0;
    reaped_n = 0;
    breaker_trips = 0;
  }

let describe_status = function
  | Unix.WEXITED n -> Printf.sprintf "exit %d" n
  | Unix.WSIGNALED s | Unix.WSTOPPED s ->
    Printf.sprintf "signal %d" (Durable.Os_signal.number s)

(* ---- spawning ---------------------------------------------------- *)

let spawn_command cfg =
  let argv = [ "worker" ] in
  match (cfg.rlimit_mem_mb, cfg.rlimit_cpu_s) with
  | None, None ->
    (cfg.exe, Array.of_list (Filename.basename cfg.exe :: argv))
  | mem, cpu ->
    (* No setrlimit in the stdlib Unix module: arm the caps with
       ulimit in a shell that execs the worker — same pid, boxed
       address space / CPU time.  "$0" carries the exe path so no
       quoting of it is ever interpreted. *)
    let parts =
      (match mem with
      | Some mb -> [ Printf.sprintf "ulimit -v %d 2>/dev/null;" (mb * 1024) ]
      | None -> [])
      @ (match cpu with
        | Some s -> [ Printf.sprintf "ulimit -t %d 2>/dev/null;" s ]
        | None -> [])
      @ [ "exec \"$0\"" ]
      @ List.map Filename.quote argv
    in
    ("/bin/sh", [| "sh"; "-c"; String.concat " " parts; cfg.exe |])

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* Read frames from a freshly spawned worker until its hello arrives
   (or the timeout / an EOF damns it). *)
let await_hello cfg frames fd =
  let deadline = Unix.gettimeofday () +. cfg.hello_timeout_s in
  let scratch = Bytes.create 512 in
  let rec go () =
    match Wire.Framer.next frames with
    | Some (Wire.Framer.Frame line) -> Worker.parse_hello line
    | Some Wire.Framer.Oversized -> Error "oversized worker hello"
    | None -> (
      let remaining = deadline -. Unix.gettimeofday () in
      if remaining <= 0.0 then Error "worker hello timed out"
      else
        match Unix.select [ fd ] [] [] (Float.min remaining 0.25) with
        | [], _, _ -> go ()
        | _ -> (
          match Unix.read fd scratch 0 (Bytes.length scratch) with
          | 0 -> Error "worker exited before hello"
          | n ->
            Wire.Framer.feed frames (Bytes.sub_string scratch 0 n);
            go ()
          | exception Unix.Unix_error _ -> Error "worker pipe error")
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ())
  in
  go ()

(* Spawn one worker for [slot].  Runs WITHOUT the lock held: forking
   and the hello handshake can take a while and must not stall lanes
   that only want an already-idle worker. *)
let spawn_worker t ~slot =
  let prog, args = spawn_command t.cfg in
  let task_r, task_w = Unix.pipe () in
  let reply_r, reply_w = Unix.pipe () in
  Unix.set_close_on_exec task_w;
  Unix.set_close_on_exec reply_r;
  match Unix.create_process prog args task_r reply_w Unix.stderr with
  | exception e ->
    List.iter close_quietly [ task_r; task_w; reply_r; reply_w ];
    Error (Printf.sprintf "cannot spawn worker: %s" (Printexc.to_string e))
  | pid -> (
    close_quietly task_r;
    close_quietly reply_w;
    let frames = Wire.Framer.create () in
    match await_hello t.cfg frames reply_r with
    | Error msg ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
      close_quietly task_w;
      close_quietly reply_r;
      Error msg
    | Ok () ->
      emit t (Obs.Trace.Worker_spawn { pid; slot });
      log t "worker %d spawned in slot %d" pid slot;
      Ok { slot; pid; to_worker = task_w; from_worker = reply_r; frames;
           solves = 0 })

(* Deterministic seeded backoff before a respawn that follows a crash:
   exponential in the current crash streak, jittered from the spawn
   ordinal so two supervisors with the same seed pace identically. *)
let respawn_delay t ~streak ~ordinal =
  if streak <= 0 then 0.0
  else begin
    let exp = Float.min (float_of_int (streak - 1)) 16.0 in
    let base = t.cfg.backoff_base_s *. Float.pow 2.0 exp in
    let capped = Float.min t.cfg.backoff_cap_s base in
    let jitter =
      Robust.Fault.det_float ~seed:t.cfg.seed ~salt:"supervisor-backoff" ordinal
    in
    capped *. (0.5 +. (0.5 *. jitter))
  end

(* Remove a dead worker and account the crash.  Called with the lock
   NOT held. *)
let remove_crashed t worker ~reason =
  emit t
    (Obs.Trace.Worker_exit
       { pid = worker.pid; reason; solves = worker.solves });
  log t "worker %d left the pool (%s, %d solves)" worker.pid reason
    worker.solves;
  close_quietly worker.to_worker;
  close_quietly worker.from_worker;
  Mutex.lock t.lock;
  t.live <- List.filter (fun w -> w != worker) t.live;
  t.busy <- t.busy - 1;
  t.crashed <- t.crashed + 1;
  t.crashes_in_row <- t.crashes_in_row + 1;
  if t.crashes_in_row >= t.cfg.breaker_threshold then begin
    let was_closed = t.breaker_until = 0.0 in
    t.breaker_until <- Unix.gettimeofday () +. t.cfg.breaker_cooldown_s;
    if was_closed then begin
      t.breaker_trips <- t.breaker_trips + 1;
      log t "circuit breaker open: %d consecutive worker crashes"
        t.crashes_in_row
    end
  end;
  Condition.broadcast t.avail;
  Mutex.unlock t.lock

(* Return a healthy worker to the idle pool. *)
let release t worker =
  Mutex.lock t.lock;
  t.busy <- t.busy - 1;
  if t.stopping then begin
    (* shutdown owns the fds now; just drop our claim *)
    Condition.broadcast t.avail;
    Mutex.unlock t.lock
  end
  else begin
    t.idle <- worker :: t.idle;
    t.crashes_in_row <- 0;
    t.breaker_until <- 0.0;
    Condition.broadcast t.avail;
    Mutex.unlock t.lock
  end

(* Acquire an idle worker, or reserve a slot and spawn one.  Blocks
   while all slots are busy. *)
let acquire t =
  Mutex.lock t.lock;
  let rec go () =
    if t.stopping then begin
      Mutex.unlock t.lock;
      Error "supervisor is shutting down"
    end
    else
      match t.idle with
      | w :: rest ->
        t.idle <- rest;
        t.busy <- t.busy + 1;
        Mutex.unlock t.lock;
        Ok w
      | [] ->
        if t.busy >= t.cfg.slots then begin
          Condition.wait t.avail t.lock;
          go ()
        end
        else begin
          let now = Unix.gettimeofday () in
          if t.breaker_until > now then begin
            let msg =
              Printf.sprintf
                "worker pool unavailable: circuit breaker open after %d \
                 consecutive crashes" t.crashes_in_row
            in
            Mutex.unlock t.lock;
            Error msg
          end
          else begin
            (* Reserve the slot, then spawn outside the lock. *)
            t.busy <- t.busy + 1;
            let streak = t.crashes_in_row in
            let ordinal = t.spawn_ordinal in
            t.spawn_ordinal <- ordinal + 1;
            let slot = ordinal mod t.cfg.slots in
            Mutex.unlock t.lock;
            let delay = respawn_delay t ~streak ~ordinal in
            if delay > 0.0 then Thread.delay delay;
            match spawn_worker t ~slot with
            | Ok w ->
              Mutex.lock t.lock;
              t.live <- w :: t.live;
              t.spawned <- t.spawned + 1;
              Mutex.unlock t.lock;
              Ok w
            | Error msg ->
              (* a failed spawn counts as a crash for the breaker *)
              Mutex.lock t.lock;
              t.busy <- t.busy - 1;
              t.crashes_in_row <- t.crashes_in_row + 1;
              if t.crashes_in_row >= t.cfg.breaker_threshold then begin
                t.breaker_until <-
                  Unix.gettimeofday () +. t.cfg.breaker_cooldown_s;
                t.breaker_trips <- t.breaker_trips + 1
              end;
              Condition.broadcast t.avail;
              Mutex.unlock t.lock;
              Error msg
          end
        end
  in
  go ()

(* ---- the solve round-trip ---------------------------------------- *)

let kill_and_wait pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  match Unix.waitpid [] pid with
  | _, status -> describe_status status
  | exception Unix.Unix_error _ -> "signal 9"

let reap_status pid =
  match Unix.waitpid [] pid with
  | _, status -> describe_status status
  | exception Unix.Unix_error _ -> "exit ?"

let solve t (task : Worker.task) =
  match acquire t with
  | Error msg -> Unavailable msg
  | Ok worker -> (
    let started = Unix.gettimeofday () in
    let budget =
      (match task.Worker.task_deadline_s with
      | Some s -> s
      | None -> t.cfg.no_deadline_timeout_s)
      +. t.cfg.grace_s
    in
    let reply_deadline = started +. budget in
    let crash ~reason =
      remove_crashed t worker ~reason;
      Crashed reason
    in
    match Wire.write_line worker.to_worker (Worker.task_line task) with
    | exception Unix.Unix_error _ ->
      (* the worker died between solves; its EOF was never read *)
      crash ~reason:(reap_status worker.pid)
    | () ->
      let rec await () =
        match Wire.Framer.next worker.frames with
        | Some (Wire.Framer.Frame line) -> (
          match Worker.parse_reply line with
          | Ok reply ->
            worker.solves <- worker.solves + 1;
            release t worker;
            Done reply
          | Error msg ->
            ignore (kill_and_wait worker.pid);
            crash ~reason:msg)
        | Some Wire.Framer.Oversized ->
          ignore (kill_and_wait worker.pid);
          crash ~reason:"oversized worker reply"
        | None -> (
          let remaining = reply_deadline -. Unix.gettimeofday () in
          if remaining <= 0.0 then begin
            (* stuck past deadline + grace: reap it *)
            ignore (kill_and_wait worker.pid);
            let after_s = Unix.gettimeofday () -. started in
            emit t (Obs.Trace.Worker_reaped { pid = worker.pid; after_s });
            log t "worker %d reaped %.3fs past its reply budget" worker.pid
              (after_s -. budget);
            Mutex.lock t.lock;
            t.reaped_n <- t.reaped_n + 1;
            Mutex.unlock t.lock;
            remove_crashed t worker ~reason:"reaped";
            Reaped
          end
          else
            match
              Unix.select [ worker.from_worker ] [] []
                (Float.min remaining 0.25)
            with
            | [], _, _ -> await ()
            | _ -> (
              let scratch = Bytes.create 4096 in
              match Unix.read worker.from_worker scratch 0 4096 with
              | 0 -> crash ~reason:(reap_status worker.pid)
              | exception Unix.Unix_error _ ->
                crash ~reason:(reap_status worker.pid)
              | n_read ->
                Wire.Framer.feed worker.frames
                  (Bytes.sub_string scratch 0 n_read);
                await ())
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> await ())
      in
      await ())

let counters t =
  Mutex.lock t.lock;
  let c =
    {
      spawned = t.spawned;
      crashed = t.crashed;
      reaped = t.reaped_n;
      breaker_trips = t.breaker_trips;
    }
  in
  Mutex.unlock t.lock;
  c

let shutdown t =
  Mutex.lock t.lock;
  t.stopping <- true;
  let workers = t.live in
  t.live <- [];
  t.idle <- [];
  Condition.broadcast t.avail;
  Mutex.unlock t.lock;
  (* Ask nicely first — closing stdin makes an idle worker exit 0 —
     then make sure. *)
  List.iter (fun w -> close_quietly w.to_worker) workers;
  let deadline = Unix.gettimeofday () +. 1.0 in
  List.iter
    (fun w ->
      let rec wait_exit () =
        match Unix.waitpid [ Unix.WNOHANG ] w.pid with
        | 0, _ ->
          if Unix.gettimeofday () > deadline then begin
            (try Unix.kill w.pid Sys.sigkill with Unix.Unix_error _ -> ());
            try ignore (Unix.waitpid [] w.pid) with Unix.Unix_error _ -> ()
          end
          else begin
            Thread.delay 0.01;
            wait_exit ()
          end
        | _ -> ()
        | exception Unix.Unix_error _ -> ()
      in
      wait_exit ();
      close_quietly w.from_worker;
      emit t
        (Obs.Trace.Worker_exit
           { pid = w.pid; reason = "shutdown"; solves = w.solves }))
    workers
