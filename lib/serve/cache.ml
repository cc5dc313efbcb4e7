(* Canonical normal form + journal-backed table.

   The canonical text deliberately does NOT reuse [Config.pp]: that
   printer exists to round-trip the concrete syntax and renders floats
   with "%g", which identifies 0.30000000000000004 with 0.3 — a
   semantic perturbation below "%g" resolution would alias two
   different instances.  Here floats render as hex literals
   ([Durability.float_to_token]), so equality of keys is exactly
   equality of the parsed instances. *)

module Config = Taskgraph.Config
module Durability = Budgetbuf.Durability

let sorted_by_name name xs =
  List.sort (fun a b -> String.compare (name a) (name b)) xs

let canonical_key cfg =
  let b = Buffer.create 512 in
  let f x = Durability.float_to_token x in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  line "budgetbuf-canonical 1";
  line "granularity %s" (f (Config.granularity cfg));
  List.iter
    (fun p ->
      line "processor %S %s %s" (Config.proc_name cfg p)
        (f (Config.replenishment cfg p))
        (f (Config.overhead cfg p)))
    (sorted_by_name (Config.proc_name cfg) (Config.processors cfg));
  List.iter
    (fun m ->
      line "memory %S %d" (Config.memory_name cfg m)
        (Config.memory_capacity cfg m))
    (sorted_by_name (Config.memory_name cfg) (Config.memories cfg));
  List.iter
    (fun g ->
      line "graph %S %s %s" (Config.graph_name cfg g)
        (f (Config.period cfg g))
        (match Config.latency_bound cfg g with
        | Some l -> f l
        | None -> "-"))
    (sorted_by_name (Config.graph_name cfg) (Config.graphs cfg));
  List.iter
    (fun w ->
      line "task %S %S %S %s %s" (Config.task_name cfg w)
        (Config.graph_name cfg (Config.task_graph cfg w))
        (Config.proc_name cfg (Config.task_proc cfg w))
        (f (Config.wcet cfg w))
        (f (Config.task_weight cfg w)))
    (sorted_by_name (Config.task_name cfg) (Config.all_tasks cfg));
  List.iter
    (fun bu ->
      line "buffer %S %S %S %S %S %d %d %s %s" (Config.buffer_name cfg bu)
        (Config.graph_name cfg (Config.task_graph cfg (Config.buffer_src cfg bu)))
        (Config.task_name cfg (Config.buffer_src cfg bu))
        (Config.task_name cfg (Config.buffer_dst cfg bu))
        (Config.memory_name cfg (Config.buffer_memory cfg bu))
        (Config.container_size cfg bu)
        (Config.initial_tokens cfg bu)
        (f (Config.buffer_weight cfg bu))
        (match Config.max_capacity cfg bu with
        | Some c -> string_of_int c
        | None -> "-"))
    (sorted_by_name (Config.buffer_name cfg) (Config.all_buffers cfg));
  Buffer.contents b

let digest key = Obs.Crc.hex (Obs.Crc.string key)

(* ---- journal payloads -------------------------------------------- *)

let fingerprint = Durable.Journal.fingerprint [ "budgetbuf-serve-cache"; "1" ]

(* The journal line of a reply that is a fact about the instance; the
   others are circumstances of the attempt and have none. *)
let payload_of ~key = function
  | Worker.Solved { solved = s; _ } ->
    Some
      (Printf.sprintf "solved %S %S %S %s %s" key s.mapping s.certificate
         (Durability.float_to_token s.objective)
         (Durability.float_to_token s.rounded_objective))
  | Worker.Unsat reason -> Some (Printf.sprintf "unsat %S %S" key reason)
  | Worker.Late _ | Worker.Failed _ -> None

(* What a hit answers: the verdict, as a clean solve of no time. *)
let hit solved = Worker.Solved { solved; attempts = 1; solve_s = 0.0 }

(* Add [key]'s verdict as the reply a hit answers, evicting the oldest
   key past [max_entries]. *)
let insert ~max_entries table order key reply =
  Hashtbl.add table key
    (match reply with Worker.Solved { solved; _ } -> hit solved | v -> v);
  Queue.add key order;
  match max_entries with
  | Some m when Hashtbl.length table > m ->
    Hashtbl.remove table (Queue.pop order)
  | _ -> ()

let decode_payload payload =
  let ib = Scanf.Scanning.from_string payload in
  match Durability.scan_token ib with
  | "solved" ->
    let key = Durability.scan_quoted ib in
    let mapping = Durability.scan_quoted ib in
    let certificate = Durability.scan_quoted ib in
    let objective = Durability.scan_float ib in
    let rounded_objective = Durability.scan_float ib in
    Some
      (key, hit { Protocol.mapping; certificate; objective; rounded_objective })
  | "unsat" ->
    let key = Durability.scan_quoted ib in
    let reason = Durability.scan_quoted ib in
    Some (key, Worker.Unsat reason)
  | _ -> None
  | exception (Scanf.Scan_failure _ | Failure _ | End_of_file) -> None

(* ---- the table --------------------------------------------------- *)

type stats = {
  entries : int;
  journal_lines : int;
  total_lines : int;
  compactions : int;
  quarantined : int;
  io_errors : int;
}

type t = {
  journal : Durable.Journal.t;
  lock : Mutex.t;
  table : (string, Worker.reply) Hashtbl.t;  (* hits: [Solved] or [Unsat] *)
  order : string Queue.t;  (* live keys, oldest first — eviction order *)
  max_entries : int option;
  mutable next_index : int;
  mutable journal_lines : int;  (* entry lines on disk, live or dead *)
  mutable total_lines : int;  (* entry lines ever appended (monotone) *)
  mutable compactions : int;
  mutable io_errors : int;
}

let open_ ?max_entries ?chaos path =
  (match max_entries with
  | Some n when n < 1 ->
    invalid_arg "Serve.Cache.open_: max_entries must be >= 1"
  | _ -> ());
  (* Damaged interior lines are not data loss: Journal salvage mode
     keeps the trustworthy entries around them, and the raw damaged
     bytes land in the .quarantine sidecar for the operator. *)
  match Durable.Journal.resume ~salvage:true ?chaos ~fingerprint path with
  | Error _ as e -> e
  | Ok journal ->
    let table = Hashtbl.create 64 in
    let order = Queue.create () in
    let next_index = ref 0 in
    let lines = ref 0 in
    List.iter
      (fun { Durable.Journal.index; payload } ->
        next_index := max !next_index (index + 1);
        incr lines;
        match decode_payload payload with
        | Some (key, verdict) ->
          if not (Hashtbl.mem table key) then
            insert ~max_entries table order key verdict
        | None -> ())
      (Durable.Journal.entries journal);
    Ok
      {
        journal;
        lock = Mutex.create ();
        table;
        order;
        max_entries;
        next_index = !next_index;
        journal_lines = !lines;
        total_lines = !lines;
        compactions = 0;
        io_errors = 0;
      }

let find t ~key =
  Mutex.lock t.lock;
  let r = Hashtbl.find_opt t.table key in
  Mutex.unlock t.lock;
  r

(* Rewrite the journal to exactly the live entries.  Called with the
   lock held once the file carries enough dead lines (evicted or
   superseded) to be worth the rewrite: at least half the file dead
   and at least a handful of lines to reclaim. *)
let compact_locked t =
  let entries =
    List.of_seq
      (Seq.mapi
         (fun index payload -> { Durable.Journal.index; payload })
         (Seq.filter_map
            (fun key -> payload_of ~key (Hashtbl.find t.table key))
            (Queue.to_seq t.order)))
  in
  Durable.Journal.replace t.journal ~entries;
  t.journal_lines <- List.length entries;
  t.next_index <- List.length entries;
  t.compactions <- t.compactions + 1

let maybe_compact_locked t =
  match t.max_entries with
  | None -> ()
  | Some _ ->
    let live = Hashtbl.length t.table in
    if t.journal_lines >= 2 * live && t.journal_lines - live >= 4 then
      compact_locked t

let store t ~key reply =
  match payload_of ~key reply with
  | None -> ()
  | Some payload ->
    Mutex.lock t.lock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock t.lock)
      (fun () ->
        if not (Hashtbl.mem t.table key) then begin
          let index = t.next_index in
          t.next_index <- index + 1;
          (* A failed journal write degrades durability, not service:
             the verdict still lands in memory and keeps being served;
             only a crash before a successful re-store would lose it. *)
          (match Durable.Journal.record t.journal ~index ~payload with
          | () ->
            t.journal_lines <- t.journal_lines + 1;
            t.total_lines <- t.total_lines + 1
          | exception Unix.Unix_error _ -> t.io_errors <- t.io_errors + 1);
          insert ~max_entries:t.max_entries t.table t.order key reply;
          maybe_compact_locked t
        end)

let size t =
  Mutex.lock t.lock;
  let n = Hashtbl.length t.table in
  Mutex.unlock t.lock;
  n

let stats t =
  Mutex.lock t.lock;
  let s =
    {
      entries = Hashtbl.length t.table;
      journal_lines = t.journal_lines;
      total_lines = t.total_lines;
      compactions = t.compactions;
      quarantined = Durable.Journal.salvaged t.journal;
      io_errors = t.io_errors;
    }
  in
  Mutex.unlock t.lock;
  s

let close t = Durable.Journal.close t.journal
