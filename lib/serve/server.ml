(* The accept loop, the dispatcher and the admission registry.

   Threads sharing one domain: the caller runs [select] over the
   listening socket and every connection (50 ms tick, so signal flags
   and stop conditions are polled promptly), the dispatcher blocks on
   the bounded queue and runs solve batches on the domain pool, and an
   optional watchdog reaps solves stuck past their deadline.  All
   cross-thread state is either a module with its own lock ([Bounded],
   [Cache], [Obs.Ctx]) or lives under the one server mutex ([stats],
   the admission registry, the in-flight list) — solves themselves
   touch no shared state, which is what lets a batch fan out onto the
   pool unchanged.

   Self-healing posture: a request handler that raises is isolated to
   a [failed] reply on its own connection (the acceptor never dies); a
   job is settled exactly once, enforced by a per-job atomic that the
   dispatcher and the watchdog race for; and with [reconcile] on, a
   connection that dies takes its admissions with it instead of
   leaking them in the registry forever. *)

module Config = Taskgraph.Config

type config = {
  socket_path : string;
  queue_capacity : int;
  batch : int;
  domains : int;
  default_deadline_s : float option;
  cache_path : string option;
  cache_max_entries : int option;
  obs : Obs.Ctx.t option;
  signals : bool;
  halt_after_admits : int option;
  chaos : Chaos.t option;
  reconcile : bool;
  watchdog_grace_s : float option;
  isolate : int option;  (* solve in N supervised worker processes *)
  rlimit_mem_mb : int option;
  rlimit_cpu_s : int option;
  poison_threshold : int;
  quarantine_path : string option;
  worker_exe : string option;  (* None: Sys.executable_name *)
  log : (string -> unit) option;
}

let default_config ~socket_path =
  {
    socket_path;
    queue_capacity = 16;
    batch = 1;
    domains = 1;
    default_deadline_s = None;
    cache_path = None;
    cache_max_entries = None;
    obs = None;
    signals = false;
    halt_after_admits = None;
    chaos = None;
    reconcile = false;
    watchdog_grace_s = Some 1.0;
    isolate = None;
    rlimit_mem_mb = None;
    rlimit_cpu_s = None;
    poison_threshold = 2;
    quarantine_path = None;
    worker_exe = None;
    log = None;
  }

type stop_reason = Shutdown_request | Signalled of int | Halted

let describe = function
  | Shutdown_request -> "shutdown"
  | Signalled n -> Printf.sprintf "interrupted (signal %d)" n
  | Halted -> "halted"

(* ---- connections ------------------------------------------------- *)

(* A connection outlives its socket activity: jobs it queued may still
   be in flight when the client half-closes, so the fd is reference
   counted ([pending]) and closed by whichever side — reader on EOF or
   dispatcher finishing the last job — drops it to quiescence. *)
type conn = {
  cid : int;
  fd : Unix.file_descr;
  frames : Wire.Framer.t;
  lock : Mutex.t;  (* guards writes, [pending], [eof], [closed], [torn] *)
  mutable pending : int;
  mutable eof : bool;
  mutable closed : bool;
  mutable torn : bool;  (* chaos: write replies one byte per syscall *)
}

let close_conn_locked c =
  if not c.closed then begin
    c.closed <- true;
    try Unix.close c.fd with Unix.Unix_error _ -> ()
  end

let write_reply c response =
  let line = Protocol.response_to_line response ^ "\n" in
  Mutex.lock c.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock c.lock)
    (fun () ->
      if not (c.closed || c.eof) then
        try
          let len = String.length line in
          let pos = ref 0 in
          (* A torn connection dribbles the reply out one byte per
             syscall: the client sees maximally fragmented reads, which
             its framer must reassemble into the identical frame. *)
          let step = if c.torn then 1 else len in
          while !pos < len do
            pos :=
              !pos + Unix.write_substring c.fd line !pos (min step (len - !pos))
          done
        with Unix.Unix_error _ -> c.eof <- true)

(* ---- jobs and shared state --------------------------------------- *)

type job = {
  job_id : string;
  job_cfg : Config.t;
  job_text : string;  (* raw configuration text, forwarded to workers *)
  key : string;
  deadline : Durable.Deadline.t;
  fault : Robust.Fault.plan option;
  job_retry : bool;
  job_conn : conn;
  arrival : float;
  settled : bool Atomic.t;
      (* settle-once guard: dispatcher and watchdog race for it *)
}

(* What an admitted job charges against the shared machine: per
   resource {e name}, the capacity its configuration declared and the
   amount its mapping consumes.  Processors: budget Mcycles out of
   [replenishment − overhead] per interval; memories: container-size
   units out of ς.  The canonical key and owning connection ride along
   for idempotent retries and crash reconciliation. *)
type footprint = {
  fp_procs : (string * float * float) list;
  fp_mems : (string * float * float) list;
  fp_key : string;
  fp_cid : int;
}

type state = {
  scfg : config;
  queue : job Bounded.t;
  cache : Cache.t option;
  supervisor : Supervisor.t option;  (* Some iff [isolate] is on *)
  quarantine : Quarantine.t option;  (* Some iff [isolate] is on *)
  pool : Parallel.Pool.t;
  lock : Mutex.t;  (* guards [stats], [live] and [inflight] *)
  mutable stats : Protocol.stats;
  live : (string, footprint) Hashtbl.t;
  mutable inflight : job list;  (* jobs handed to the pool, not settled *)
  ready : Protocol.readiness Atomic.t;
  dispatcher_done : bool Atomic.t;
  ewma_solve_s : float Atomic.t;
  settled_admits : int Atomic.t;
}

let emit state ev =
  match state.scfg.obs with Some ctx -> Obs.Ctx.emit ctx ev | None -> ()

(* [emit] for an event that costs something to build (a cache event's
   key digest is a CRC over the whole instance text): built only when a
   trace is attached. *)
let emit_with state make =
  match state.scfg.obs with Some ctx -> Obs.Ctx.emit ctx (make ()) | None -> ()

let log state fmt =
  Printf.ksprintf
    (fun s -> match state.scfg.log with Some f -> f s | None -> ())
    fmt

let with_lock state f =
  Mutex.lock state.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock state.lock) f

let bump state f = with_lock state (fun () -> state.stats <- f state.stats)

let snapshot state =
  with_lock state (fun () ->
      {
        state.stats with
        live = Hashtbl.length state.live;
        queue = Bounded.length state.queue;
      })

(* ---- admission registry ------------------------------------------ *)

(* With [reconcile] on, a connection that is gone releases every
   admission it owned: a crashed client cannot leak capacity.  Called
   (outside any conn lock) whenever a connection fully closes. *)
let reap_conn state (c : conn) =
  if state.scfg.reconcile then begin
    let ids =
      with_lock state (fun () ->
          let ids =
            Hashtbl.fold
              (fun id fp acc -> if fp.fp_cid = c.cid then id :: acc else acc)
              state.live []
          in
          List.iter
            (fun id ->
              Hashtbl.remove state.live id;
              state.stats <-
                { state.stats with released = state.stats.released + 1 })
            ids;
          ids)
    in
    List.iter
      (fun id -> log state "reconcile: released %s (connection closed)" id)
      ids
  end

let job_done state (c : conn) =
  Mutex.lock c.lock;
  c.pending <- c.pending - 1;
  let closed_now = c.eof && c.pending = 0 && not c.closed in
  if closed_now then close_conn_locked c;
  Mutex.unlock c.lock;
  if closed_now then reap_conn state c

(* Mark a connection dead (EOF or injected reset).  Closes and reaps
   immediately when no jobs are in flight; otherwise the last
   [job_done] does both. *)
let conn_gone state (c : conn) =
  Mutex.lock c.lock;
  c.eof <- true;
  let closed_now = c.pending = 0 && not c.closed in
  if closed_now then close_conn_locked c;
  Mutex.unlock c.lock;
  if closed_now then reap_conn state c

let footprint_of cfg mapped ~key ~cid =
  let fp_procs =
    List.map
      (fun p ->
        let cap = Config.replenishment cfg p -. Config.overhead cfg p in
        let need =
          List.fold_left
            (fun acc w -> acc +. mapped.Config.budget w)
            0.0 (Config.tasks_on cfg p)
        in
        (Config.proc_name cfg p, cap, need))
      (Config.processors cfg)
  in
  let fp_mems =
    List.map
      (fun m ->
        let cap = float_of_int (Config.memory_capacity cfg m) in
        let need =
          List.fold_left
            (fun acc b ->
              acc
              +. float_of_int
                   (mapped.Config.capacity b * Config.container_size cfg b))
            0.0 (Config.buffers_in cfg m)
        in
        (Config.memory_name cfg m, cap, need))
      (Config.memories cfg)
  in
  { fp_procs; fp_mems; fp_key = key; fp_cid = cid }

(* Fit check against everything currently admitted, by resource name.
   Two live configurations naming the same processor or memory must
   declare it identically — otherwise there is no well-defined shared
   capacity to ration — and the sum of their needs must fit it (with
   the usual relative slack so a mapping that exactly fills a resource
   is not rejected over float noise).  Runs under the server lock.

   A [retry] admit for an id already holding the {e same} canonical
   instance is the lost-reply idempotence path: answer again, rebind
   the lease to the retrying connection, charge nothing.  A duplicate
   id without the flag (or with a different instance) still fails
   loudly. *)
let admit_locked state id ~retry fp =
  match Hashtbl.find_opt state.live id with
  | Some existing when retry && String.equal existing.fp_key fp.fp_key ->
    Hashtbl.replace state.live id { existing with fp_cid = fp.fp_cid };
    Ok ()
  | Some _ ->
    Error (Printf.sprintf "job %S is already admitted; release it first" id)
  | None -> begin
    let check kind sum_of fps =
      List.find_map
        (fun (name, cap, need) ->
          let conflict =
            Hashtbl.fold
              (fun _ live acc ->
                acc
                || List.exists
                     (fun (n, c, _) -> n = name && c <> cap)
                     (sum_of live))
              state.live false
          in
          if conflict then
            Some
              (Printf.sprintf "%s %S declared with a conflicting capacity"
                 kind name)
          else begin
            let used =
              Hashtbl.fold
                (fun _ live acc ->
                  List.fold_left
                    (fun acc (n, _, u) -> if n = name then acc +. u else acc)
                    acc (sum_of live))
                state.live 0.0
            in
            if used +. need > cap +. (1e-9 *. (1.0 +. Float.abs cap)) then
              Some
                (Printf.sprintf
                   "%s %S: insufficient remaining capacity (need %g, free %g)"
                   kind name need (cap -. used))
            else None
          end)
        fps
    in
    match check "processor" (fun fp -> fp.fp_procs) fp.fp_procs with
    | Some reason -> Error reason
    | None -> (
      match check "memory" (fun fp -> fp.fp_mems) fp.fp_mems with
      | Some reason -> Error reason
      | None ->
        Hashtbl.add state.live id fp;
        Ok ())
  end

let release state id =
  with_lock state (fun () ->
      match Hashtbl.find_opt state.live id with
      | Some _ ->
        Hashtbl.remove state.live id;
        state.stats <- { state.stats with released = state.stats.released + 1 };
        true
      | None -> false)

(* ---- solving ----------------------------------------------------- *)

(* A job's verdict.  Every solve — in-process or on a worker — ends in
   the shared step's [Worker.reply]; only the server itself answers
   from the memo cache or the quarantine. *)
type solve_outcome =
  | Reply of Worker.reply
  | Hit of Cache.outcome
  | Poisoned of string  (* quarantined instance, not solved *)

(* Attribute a worker death to the offending instance.  Crossing the
   poison threshold emits the [quarantined] trace event exactly once
   per key. *)
let note_worker_crash state job ~reason =
  bump state (fun s ->
      { s with Protocol.worker_crashes = s.Protocol.worker_crashes + 1 });
  match state.quarantine with
  | None -> ()
  | Some q ->
    let crashes = Quarantine.note_crash q ~key:job.key ~reason in
    if crashes = Quarantine.threshold q then begin
      emit state
        (Obs.Trace.Quarantined { key = Cache.digest job.key; crashes });
      log state "quarantined %s after %d worker crashes (%s)"
        (Cache.digest job.key) crashes reason
    end

(* One solve on a supervised worker process.  Whatever the worker does
   — answer, crash, hang, trip an rlimit — the server answers the
   client with a structured verdict; a crash or reap is additionally
   charged to the instance's quarantine record.  A deadline that
   lapsed before dispatch is sent as 0: the worker answers [late].  The
   fault plan travels as its canonical spec, which parses back to the
   same plan. *)
let solve_isolated state sup job =
  let task =
    {
      Worker.task_id = job.job_id;
      task_config = job.job_text;
      task_fault = Option.map Robust.Fault.to_string job.fault;
      task_deadline_s =
        (let r = Durable.Deadline.remaining_s job.deadline in
         if Float.is_finite r then Some (Float.max r 0.0) else None);
    }
  in
  match Supervisor.solve sup task with
  | Supervisor.Done reply -> reply
  | Supervisor.Crashed reason ->
    note_worker_crash state job ~reason;
    Worker.R_failed (Printf.sprintf "worker crashed (%s)" reason)
  | Supervisor.Reaped ->
    note_worker_crash state job ~reason:"reaped";
    Worker.R_late "solve worker stuck past its deadline and was reaped"
  | Supervisor.Unavailable reason -> Worker.R_failed reason

(* No shared state either way, so safe on any pool lane. *)
let solve_job state job =
  match state.supervisor with
  | Some sup -> solve_isolated state sup job
  | None ->
    Worker.solve ?obs:state.scfg.obs ~deadline:job.deadline job.job_cfg
      job.fault

(* Settle a job whose verdict is in hand: admission check, reply,
   counters, trace.  Exactly-once: whoever wins the [settled] flag —
   this path on the dispatcher thread or the watchdog — writes the
   reply; the loser's verdict is dropped (the cache store already
   happened, so a watchdog-reaped solve still pays forward).  Answers
   whether this call won. *)
let settle state job ~cache_tag ~dequeued outcome =
  with_lock state (fun () ->
      state.inflight <- List.filter (fun j -> j != job) state.inflight);
  if Atomic.compare_and_set job.settled false true then begin
    let admit ~mapping ~certificate ~objective ~rounded_objective ~attempts =
      let admission =
        with_lock state (fun () ->
            let fp =
              footprint_of job.job_cfg
                (Taskgraph.Mapped_io.parse job.job_cfg mapping)
                ~key:job.key ~cid:job.job_conn.cid
            in
            let r = admit_locked state job.job_id ~retry:job.job_retry fp in
            (* The connection may have died while we solved: with
               reconcile on, releasing here (or in [reap_conn] when the
               close races us) keeps dead clients from leaking
               capacity. *)
            (match r with
            | Ok ()
              when state.scfg.reconcile
                   && (job.job_conn.eof || job.job_conn.closed) ->
              Hashtbl.remove state.live job.job_id;
              state.stats <-
                { state.stats with released = state.stats.released + 1 }
            | _ -> ());
            r)
      in
      match admission with
      | Ok () ->
        Protocol.Admitted
          {
            id = job.job_id;
            cache = cache_tag;
            mapping;
            certificate;
            objective;
            rounded_objective;
            attempts;
          }
      | Error reason -> Protocol.Rejected { id = job.job_id; reason }
    in
    let response =
      match outcome with
      | Reply (Worker.R_solved r) ->
        admit ~mapping:r.mapping ~certificate:r.certificate
          ~objective:r.objective ~rounded_objective:r.rounded_objective
          ~attempts:r.attempts
      | Hit (Cache.Solved s) ->
        admit ~mapping:s.mapping ~certificate:s.certificate
          ~objective:s.objective ~rounded_objective:s.rounded_objective
          ~attempts:1
      | Reply (Worker.R_unsat reason) | Hit (Cache.Unsat { reason }) ->
        Protocol.Unsat { id = job.job_id; reason }
      | Reply (Worker.R_late reason) ->
        Protocol.Late { id = job.job_id; reason }
      | Reply (Worker.R_failed reason) ->
        Protocol.Failed { id = job.job_id; reason }
      | Poisoned reason -> Protocol.Poisoned { id = job.job_id; reason }
    in
    bump state (fun s ->
        match response with
        | Protocol.Admitted _ -> { s with admitted = s.admitted + 1 }
        | Protocol.Rejected _ -> { s with rejected = s.rejected + 1 }
        | Protocol.Unsat _ -> { s with infeasible = s.infeasible + 1 }
        | Protocol.Late _ -> { s with timed_out = s.timed_out + 1 }
        | Protocol.Poisoned _ -> { s with poisoned = s.poisoned + 1 }
        | _ -> { s with failed = s.failed + 1 });
    write_reply job.job_conn response;
    let now = Unix.gettimeofday () in
    emit state
      (Obs.Trace.Request_done
         {
           op = "admit";
           id = job.job_id;
           status = Protocol.status_of_response response;
           queue_s = dequeued -. job.arrival;
           total_s = now -. job.arrival;
         });
    job_done state job.job_conn;
    Atomic.incr state.settled_admits;
    true
  end
  else false

let update_ewma state sample =
  let rec go () =
    let old = Atomic.get state.ewma_solve_s in
    let next = if old <= 0.0 then sample else (0.3 *. sample) +. (0.7 *. old) in
    if not (Atomic.compare_and_set state.ewma_solve_s old next) then go ()
  in
  if Float.is_finite sample && sample > 0.0 then go ()

let retry_hint state =
  let mean =
    let e = Atomic.get state.ewma_solve_s in
    if e > 0.0 then e else 0.05
  in
  mean *. float_of_int (Bounded.length state.queue + 1)

(* The dispatcher: pop a job (blocking), opportunistically gather a
   batch behind it, answer what the cache already settles, fan the
   rest out on the pool, then settle in arrival order. *)
let dispatch_batch state first =
  let dequeued = Unix.gettimeofday () in
  let rec gather acc n =
    if n >= state.scfg.batch then List.rev acc
    else
      match Bounded.pop_nowait state.queue with
      | Some j -> gather (j :: acc) (n + 1)
      | None -> List.rev acc
  in
  let batch = gather [ first ] 1 in
  let quarantined job =
    match state.quarantine with
    | None -> None
    | Some q -> Quarantine.poisoned q ~key:job.key
  in
  let classify job =
    if Durable.Deadline.expired job.deadline then
      `Settled (job, Reply (Worker.R_late "deadline expired while queued"))
    else
      match quarantined job with
      | Some crashes ->
        `Settled
          ( job,
            Poisoned
              (Printf.sprintf "instance quarantined after %d worker crashes"
                 crashes) )
      | None -> (
      match state.cache with
      | None -> `Solve job
      | Some cache -> (
        match Cache.find cache ~key:job.key with
        | Some outcome ->
          emit_with state (fun () ->
              Obs.Trace.Cache_hit { key = Cache.digest job.key });
          bump state (fun s -> { s with cache_hits = s.cache_hits + 1 });
          `Settled (job, Hit outcome)
        | None ->
          emit_with state (fun () ->
              Obs.Trace.Cache_miss { key = Cache.digest job.key });
          bump state (fun s -> { s with cache_misses = s.cache_misses + 1 });
          `Solve job))
  in
  let classified = List.map classify batch in
  let to_solve =
    List.filter_map (function `Solve j -> Some j | `Settled _ -> None) classified
  in
  (* Register with the watchdog before the pool takes over: from here
     until its settle, a job stuck past deadline+grace is reaped. *)
  with_lock state (fun () -> state.inflight <- to_solve @ state.inflight);
  let solved =
    match to_solve with
    | [] -> []
    | jobs ->
      Parallel.Pool.map_result ?obs:state.scfg.obs state.pool
        (fun job -> solve_job state job)
        jobs
      |> List.map2
           (fun job -> function
             | Ok reply -> (job, reply)
             | Error exn -> (job, Worker.R_failed (Printexc.to_string exn)))
           jobs
  in
  let solved = ref solved in
  List.iter
    (fun entry ->
      match entry with
      | `Settled (job, outcome) ->
        ignore (settle state job ~cache_tag:`Hit ~dequeued outcome)
      | `Solve _ -> (
        match !solved with
        | (job, reply) :: rest ->
          solved := rest;
          (* Cache the verdicts that are facts about the instance
             (solved, infeasible), not those about this attempt (timed
             out, failed). *)
          (match reply with
          | Worker.R_solved r ->
            update_ewma state r.solve_s;
            Option.iter
              (fun c ->
                Cache.store c ~key:job.key
                  (Cache.Solved
                     {
                       mapping = r.mapping;
                       certificate = r.certificate;
                       objective = r.objective;
                       rounded_objective = r.rounded_objective;
                     }))
              state.cache
          | Worker.R_unsat reason ->
            Option.iter
              (fun c -> Cache.store c ~key:job.key (Cache.Unsat { reason }))
              state.cache
          | Worker.R_late _ | Worker.R_failed _ -> ());
          ignore (settle state job ~cache_tag:`Miss ~dequeued (Reply reply))
        | [] -> assert false))
    classified

let dispatcher state =
  let rec loop () =
    match Bounded.pop state.queue with
    | None -> ()
    | Some job ->
      (try dispatch_batch state job
       with exn ->
         (* A dispatcher death would hang every queued client; answer
            the job that blew up and keep going. *)
         write_reply job.job_conn
           (Protocol.Failed
              { id = job.job_id; reason = Printexc.to_string exn });
         job_done state job.job_conn);
      loop ()
  in
  loop ();
  Atomic.set state.dispatcher_done true

(* The watchdog: every 50 ms, look for in-flight jobs stuck more than
   [grace] past their deadline and settle them as [timed_out] — the
   client gets an answer and the queue slot is not leaked even if the
   underlying solve never returns.  The racing real settle loses the
   [settled] flag and is dropped (its cache store still counts). *)
let watchdog state ~grace stop =
  while not (Atomic.get stop) do
    Thread.delay 0.05;
    let overdue =
      with_lock state (fun () ->
          List.filter
            (fun j ->
              (not (Atomic.get j.settled))
              && Durable.Deadline.remaining_s j.deadline < -.grace)
            state.inflight)
    in
    let reason =
      Printf.sprintf "watchdog: solve stuck %gs past its deadline" grace
    in
    List.iter
      (fun job ->
        (* Dequeue time = arrival: the trace charges no queue wait. *)
        if
          settle state job ~cache_tag:`Miss ~dequeued:job.arrival
            (Reply (Worker.R_late reason))
        then log state "watchdog: reaped %s (%s)" job.job_id reason)
      overdue
  done

(* ---- request handling (accept-loop thread) ----------------------- *)

type control = Keep_going | Begin_drain

let handle_admit state conn ~id ~config_text ~deadline_s ~fault ~retry ~arrival
    =
  match Worker.parse ~config:config_text ~fault with
  | Error reason ->
    bump state (fun s -> { s with refused = s.refused + 1 });
    write_reply conn (Protocol.Refused { reason });
    "error"
  | Ok (cfg, plan) -> (
    let deadline =
      match (deadline_s, state.scfg.default_deadline_s) with
      | Some s, _ | None, Some s -> Durable.Deadline.after s
      | None, None -> Durable.Deadline.none
    in
    let job =
      {
        job_id = id;
        job_cfg = cfg;
        job_text = config_text;
        key = Cache.canonical_key cfg;
        deadline;
        fault = plan;
        job_retry = retry;
        job_conn = conn;
        arrival;
        settled = Atomic.make false;
      }
    in
    Mutex.lock conn.lock;
    conn.pending <- conn.pending + 1;
    Mutex.unlock conn.lock;
    match Bounded.try_push state.queue job with
    | `Ok -> "queued"
    | `Full ->
      job_done state conn;
      emit state (Obs.Trace.Shed { queue = Bounded.length state.queue });
      bump state (fun s -> { s with shed = s.shed + 1 });
      write_reply conn
        (Protocol.Overloaded { id; retry_after_s = retry_hint state });
      "overloaded"
    | `Closed ->
      job_done state conn;
      bump state (fun s -> { s with refused = s.refused + 1 });
      write_reply conn (Protocol.Refused { reason = "server is draining" });
      "error")

let handle_line state conn line =
  let arrival = Unix.gettimeofday () in
  let finish ~op ~id status =
    if status <> "queued" then
      emit state
        (Obs.Trace.Request_done
           {
             op;
             id;
             status;
             queue_s = 0.0;
             total_s = Unix.gettimeofday () -. arrival;
           })
  in
  match Protocol.request_of_line line with
  | Error reason ->
    bump state (fun s -> { s with refused = s.refused + 1 });
    write_reply conn (Protocol.Refused { reason });
    finish ~op:"invalid" ~id:"" "error";
    Keep_going
  | Ok request -> (
    let op, id =
      match request with
      | Protocol.Admit { id; _ } -> ("admit", id)
      | Protocol.Release { id } -> ("release", id)
      | Protocol.Ping -> ("ping", "")
      | Protocol.Stats -> ("stats", "")
      | Protocol.Shutdown -> ("shutdown", "")
    in
    emit state (Obs.Trace.Request_start { op; id });
    (* The chaos decision for this request, drawn before dispatch so
       every kind can hit every op.  [Drop_conn] marks the connection
       dead {e before} processing: the request still takes effect, its
       reply is lost — exactly the lost-reply window idempotent
       retries must cover. *)
    (match Chaos.on_request state.scfg.chaos with
    | Chaos.Pass -> ()
    | Chaos.Torn_reply ->
      Mutex.lock conn.lock;
      conn.torn <- true;
      Mutex.unlock conn.lock
    | Chaos.Stall_handler -> Thread.delay 0.02
    | Chaos.Drop_conn -> conn_gone state conn
    | Chaos.Raise_exn -> failwith "chaos: injected handler failure");
    match request with
    | Protocol.Admit { id; config; deadline_s; fault; retry } ->
      let status =
        handle_admit state conn ~id ~config_text:config ~deadline_s ~fault
          ~retry ~arrival
      in
      finish ~op ~id status;
      Keep_going
    | Protocol.Release { id } ->
      let found = release state id in
      write_reply conn (Protocol.Released { id; found });
      finish ~op ~id "released";
      Keep_going
    | Protocol.Ping ->
      bump state (fun s -> { s with pings = s.pings + 1 });
      write_reply conn (Protocol.Ready { state = Atomic.get state.ready });
      finish ~op ~id "ready";
      Keep_going
    | Protocol.Stats ->
      write_reply conn (Protocol.Stats_reply (snapshot state));
      finish ~op ~id "stats";
      Keep_going
    | Protocol.Shutdown ->
      write_reply conn Protocol.Bye;
      finish ~op ~id "shutting_down";
      Begin_drain)

(* Drain the connection's framer of complete lines.  Returns
   [Begin_drain] as soon as a shutdown request is seen (remaining
   pipelined input is ignored: the client asked us to stop).

   Handler isolation: an exception out of [handle_line] — a poisoned
   request, an injected chaos failure, an unexpected bug — costs that
   request a [failed] reply and nothing else.  The acceptor loop and
   every other connection keep going. *)
let process_buffer state conn =
  let rec go () =
    match Wire.Framer.next conn.frames with
    | None -> Keep_going
    | Some (Wire.Framer.Frame "") -> go ()
    | Some Wire.Framer.Oversized ->
      (* The framer already dropped the payload; answer with a bounded
         reply and keep the connection — the next frame is intact. *)
      bump state (fun s -> { s with refused = s.refused + 1 });
      write_reply conn
        (Protocol.Refused
           {
             reason =
               Printf.sprintf "too_large: frame exceeds %d bytes"
                 (Wire.Framer.max_frame conn.frames);
           });
      go ()
    | Some (Wire.Framer.Frame line) -> (
      match handle_line state conn line with
      | Keep_going -> go ()
      | Begin_drain -> Begin_drain
      | exception exn ->
        let reason = "handler: " ^ Printexc.to_string exn in
        bump state (fun s -> { s with failed = s.failed + 1 });
        write_reply conn (Protocol.Failed { id = ""; reason });
        emit state
          (Obs.Trace.Request_done
             {
               op = "admit";
               id = "";
               status = "failed";
               queue_s = 0.0;
               total_s = 0.0;
             });
        log state "isolated a poisoned request: %s" (Printexc.to_string exn);
        go ())
  in
  go ()

(* ---- lifecycle --------------------------------------------------- *)

let sig_flag = Atomic.make 0

let install_signals () =
  Atomic.set sig_flag 0;
  List.map
    (fun signum ->
      (signum, Sys.signal signum (Sys.Signal_handle (fun s -> Atomic.set sig_flag s))))
    [ Sys.sigint; Sys.sigterm ]

let restore_signals saved =
  List.iter (fun (signum, prev) -> Sys.set_signal signum prev) saved

let bind_socket path =
  (match Unix.stat path with
  | { Unix.st_kind = Unix.S_SOCK; _ } -> Unix.unlink path
  | _ -> failwith (Printf.sprintf "%s exists and is not a socket" path)
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ());
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.set_close_on_exec fd;
  (try Unix.bind fd (Unix.ADDR_UNIX path)
   with e ->
     Unix.close fd;
     raise e);
  Unix.listen fd 16;
  fd

let run scfg =
  if scfg.queue_capacity < 1 then Error "queue capacity must be at least 1"
  else if scfg.batch < 1 then Error "batch must be at least 1"
  else if scfg.domains < 1 then Error "jobs must be at least 1"
  else if (match scfg.isolate with Some n -> n < 1 | None -> false) then
    Error "isolate must be at least 1"
  else if scfg.poison_threshold < 1 then
    Error "poison threshold must be at least 1"
  else if scfg.isolate = None && scfg.quarantine_path <> None then
    Error "a quarantine journal needs --isolate"
  else begin
    let open_opt f = function
      | None -> Ok None
      | Some x -> Result.map Option.some (f x)
    in
    match
      open_opt
        (Cache.open_ ?max_entries:scfg.cache_max_entries
           ?chaos:(Chaos.journal_hook scfg.chaos))
        scfg.cache_path
    with
    | Error msg -> Error msg
    | Ok cache -> (
      match
        open_opt
          (fun _ ->
            Quarantine.create ?path:scfg.quarantine_path
              ?chaos:(Chaos.journal_hook scfg.chaos)
              ~threshold:scfg.poison_threshold ())
          scfg.isolate
      with
      | Error msg ->
        Option.iter Cache.close cache;
        Error msg
      | Ok quarantine -> (
      match bind_socket scfg.socket_path with
      | exception Failure msg ->
        Option.iter Cache.close cache;
        Option.iter Quarantine.close quarantine;
        Error msg
      | exception Unix.Unix_error (e, _, _) ->
        Option.iter Cache.close cache;
        Option.iter Quarantine.close quarantine;
        Error
          (Printf.sprintf "cannot bind %s: %s" scfg.socket_path
             (Unix.error_message e))
      | listen_fd ->
        let pool = Parallel.Pool.create ~domains:scfg.domains in
        let supervisor =
          Option.map
            (fun slots ->
              let exe =
                match scfg.worker_exe with
                | Some e -> e
                | None -> Sys.executable_name
              in
              let base = Supervisor.default_config ~exe in
              Supervisor.create
                {
                  base with
                  Supervisor.slots;
                  rlimit_mem_mb = scfg.rlimit_mem_mb;
                  rlimit_cpu_s = scfg.rlimit_cpu_s;
                  obs = scfg.obs;
                  log = scfg.log;
                })
            scfg.isolate
        in
        let state =
          {
            scfg;
            queue = Bounded.create ~capacity:scfg.queue_capacity;
            cache;
            supervisor;
            quarantine;
            pool;
            lock = Mutex.create ();
            stats = Protocol.zero_stats;
            live = Hashtbl.create 16;
            inflight = [];
            ready = Atomic.make Protocol.Starting;
            dispatcher_done = Atomic.make false;
            ewma_solve_s = Atomic.make 0.0;
            settled_admits = Atomic.make 0;
          }
        in
        let saved_signals =
          if scfg.signals then install_signals () else []
        in
        let saved_pipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
        let dispatcher_t = Thread.create dispatcher state in
        let watchdog_stop = Atomic.make false in
        let watchdog_t =
          Option.map
            (fun grace ->
              Thread.create (fun () -> watchdog state ~grace watchdog_stop) ())
            scfg.watchdog_grace_s
        in
        (match cache with
        | Some c -> log state "cache: %d instances from %s" (Cache.size c)
                      (match scfg.cache_path with Some p -> p | None -> "")
        | None -> ());
        log state "listening on %s" scfg.socket_path;
        Atomic.set state.ready Protocol.Serving;
        let conns = ref [] in
        let next_cid = ref 0 in
        let halted job =
          (* Crash simulation: the job never gets a reply.  Balance the
             refcount so the fd bookkeeping stays sane. *)
          job_done state job.job_conn
        in
        (* One select-and-service round over the open connections (and
           the listening socket while we still accept).  Shared by the
           serving loop and the graceful drain, which keeps answering
           control traffic — ping says "draining", stats and release
           still work — until the dispatcher has settled every queued
           job. *)
        let pump ~listen =
          let fds =
            (match listen with Some fd -> [ fd ] | None -> [])
            @ List.filter_map
                (fun c -> if c.closed || c.eof then None else Some c.fd)
                !conns
          in
          match Unix.select fds [] [] 0.05 with
          | exception Unix.Unix_error ((Unix.EINTR | Unix.EBADF), _, _) ->
            false
          | readable, _, _ ->
            let drain = ref false in
            (match listen with
            | Some lfd when List.mem lfd readable -> begin
              match Unix.accept lfd with
              | fd, _ ->
                Unix.set_close_on_exec fd;
                let cid = !next_cid in
                incr next_cid;
                conns :=
                  {
                    cid;
                    fd;
                    frames = Wire.Framer.create ();
                    lock = Mutex.create ();
                    pending = 0;
                    eof = false;
                    closed = false;
                    torn = false;
                  }
                  :: !conns
              | exception Unix.Unix_error _ -> ()
            end
            | _ -> ());
            let scratch = Bytes.create 4096 in
            List.iter
              (fun c ->
                if (not (c.closed || c.eof)) && List.mem c.fd readable
                then begin
                  match Unix.read c.fd scratch 0 (Bytes.length scratch) with
                  | 0 | (exception Unix.Unix_error _) -> conn_gone state c
                  | n ->
                    Wire.Framer.feed c.frames (Bytes.sub_string scratch 0 n);
                    (match process_buffer state c with
                    | Keep_going -> ()
                    | Begin_drain -> drain := true)
                end)
              !conns;
            conns := List.filter (fun c -> not c.closed) !conns;
            !drain
        in
        let finish ~graceful reason =
          Atomic.set state.ready Protocol.Draining;
          (try Unix.close listen_fd with Unix.Unix_error _ -> ());
          (try Unix.unlink scfg.socket_path with Unix.Unix_error _ -> ());
          if graceful then begin
            Bounded.close state.queue;
            (* Keep servicing control traffic on the open connections
               until the dispatcher has drained the queue. *)
            while not (Atomic.get state.dispatcher_done) do
              ignore (pump ~listen:None)
            done
          end
          else List.iter halted (Bounded.halt state.queue);
          Thread.join dispatcher_t;
          Atomic.set watchdog_stop true;
          Option.iter Thread.join watchdog_t;
          Option.iter Supervisor.shutdown supervisor;
          List.iter
            (fun (c : conn) ->
              Mutex.lock c.lock;
              close_conn_locked c;
              Mutex.unlock c.lock)
            !conns;
          (match cache with
          | Some c ->
            let cs = Cache.stats c in
            if
              cs.Cache.compactions > 0 || cs.Cache.quarantined > 0
              || cs.Cache.io_errors > 0
            then
              log state
                "cache: %d entries, %d journal lines (%d ever), %d \
                 compactions, %d quarantined, %d io errors"
                cs.Cache.entries cs.Cache.journal_lines cs.Cache.total_lines
                cs.Cache.compactions cs.Cache.quarantined cs.Cache.io_errors
          | None -> ());
          Option.iter Cache.close cache;
          (match quarantine with
          | Some q ->
            let qs = Quarantine.stats q in
            if qs.Quarantine.crashes > 0 || qs.Quarantine.salvaged > 0 then
              log state
                "quarantine: %d keys (%d poisoned), %d crashes, %d salvaged, \
                 %d io errors"
                qs.Quarantine.keys qs.Quarantine.poisoned
                qs.Quarantine.crashes qs.Quarantine.salvaged
                qs.Quarantine.io_errors
          | None -> ());
          Option.iter Quarantine.close quarantine;
          Parallel.Pool.fini pool;
          if scfg.signals then restore_signals saved_signals;
          Sys.set_signal Sys.sigpipe saved_pipe;
          let stats = snapshot state in
          log state "stopping: %s" (describe reason);
          Ok (reason, stats)
        in
        let rec loop () =
          let signalled = Atomic.get sig_flag in
          if scfg.signals && signalled <> 0 then begin
            let n = Durable.Os_signal.number signalled in
            log state "draining on signal %d" n;
            finish ~graceful:true (Signalled n)
          end
          else if
            match scfg.halt_after_admits with
            | Some n -> Atomic.get state.settled_admits >= n
            | None -> false
          then finish ~graceful:false Halted
          else if
            (* Half-closed connections stay in [conns] until their last
               in-flight job drops the refcount, but the dispatcher may
               close their fd at any moment — never select on them. *)
            pump ~listen:(Some listen_fd)
          then finish ~graceful:true Shutdown_request
          else loop ()
        in
        loop ()))
  end
