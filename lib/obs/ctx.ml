(* The observability context threaded through the stack as [?obs].

   [emit] does two things: it folds the event into the aggregate
   metrics (the [--metrics] table), and — unless the sink is null — it
   stamps the event with a sequence number and a clock reading and
   hands it to the sink.  Every metric arrives at most once per solve,
   pool task or request (never per iteration), so one mutex guards
   them all. *)

type t = {
  sink : Sink.t;
  seq : int Atomic.t;
  mutex : Mutex.t;
  mutable solves : int;
  mutable iterations : int;
  mutable solve_time_s : float;
  mutable restore_hits : int;
  mutable restore_misses : int;
  mutable dispatched : int;
  mutable joined : int;
  mutable cache_hits : int;
  mutable cache_misses : int;
  mutable sheds : int;
  rungs : (string, int ref) Hashtbl.t;
  certificates : (string, int ref) Hashtbl.t;
  candidates : (string, int ref) Hashtbl.t;
  tighten : (string, int ref) Hashtbl.t;
  faults : (string, int ref) Hashtbl.t;
  requests : (string, int ref) Hashtbl.t;
  workers : (string, int ref) Hashtbl.t;
  phases : (string, float ref) Hashtbl.t;
}

let make ?(sink = Sink.null) () =
  {
    sink;
    seq = Atomic.make 0;
    mutex = Mutex.create ();
    solves = 0;
    iterations = 0;
    solve_time_s = 0.0;
    restore_hits = 0;
    restore_misses = 0;
    dispatched = 0;
    joined = 0;
    cache_hits = 0;
    cache_misses = 0;
    sheds = 0;
    rungs = Hashtbl.create 8;
    certificates = Hashtbl.create 4;
    candidates = Hashtbl.create 8;
    tighten = Hashtbl.create 4;
    faults = Hashtbl.create 4;
    requests = Hashtbl.create 8;
    workers = Hashtbl.create 4;
    phases = Hashtbl.create 8;
  }

let sink t = t.sink

let bump table key =
  match Hashtbl.find_opt table key with
  | Some r -> incr r
  | None -> Hashtbl.add table key (ref 1)

let tally t = function
  | Trace.Solve_end { iterations; time_s; _ } ->
    t.solves <- t.solves + 1;
    t.iterations <- t.iterations + iterations;
    t.solve_time_s <- t.solve_time_s +. time_s
  | Trace.Rung_enter { stage; _ } -> bump t.rungs stage
  | Trace.Fault_injected { kind; _ } -> bump t.faults kind
  | Trace.Certificate { verdict } -> bump t.certificates verdict
  | Trace.Candidate { verdict; _ } -> bump t.candidates verdict
  | Trace.Tighten_probe _ -> bump t.tighten "probe"
  | Trace.Tighten_accept _ -> bump t.tighten "accept"
  | Trace.Tighten_reject _ -> bump t.tighten "reject"
  | Trace.Restore { hit = true; _ } -> t.restore_hits <- t.restore_hits + 1
  | Trace.Restore { hit = false; _ } ->
    t.restore_misses <- t.restore_misses + 1
  | Trace.Task_dispatch _ -> t.dispatched <- t.dispatched + 1
  | Trace.Task_join _ -> t.joined <- t.joined + 1
  | Trace.Request_done { status; _ } -> bump t.requests status
  | Trace.Cache_hit _ -> t.cache_hits <- t.cache_hits + 1
  | Trace.Cache_miss _ -> t.cache_misses <- t.cache_misses + 1
  | Trace.Shed _ -> t.sheds <- t.sheds + 1
  | Trace.Chaos_injected { kind; _ } -> bump t.faults ("chaos:" ^ kind)
  | Trace.Worker_spawn _ -> bump t.workers "spawned"
  | Trace.Worker_exit _ -> bump t.workers "exited"
  | Trace.Worker_reaped _ -> bump t.workers "reaped"
  | Trace.Quarantined _ -> bump t.workers "quarantined"
  | Trace.Span_close { name; elapsed_s } -> (
    match Hashtbl.find_opt t.phases name with
    | Some r -> r := !r +. elapsed_s
    | None -> Hashtbl.add t.phases name (ref elapsed_s))
  | _ -> ()

let emit t event =
  (match event with
  | Trace.Solve_start _ | Trace.Socp_iter _ | Trace.Presolve _
  | Trace.Rung_exit _ | Trace.Span_open _ | Trace.Kkt_factor _
  | Trace.Warm_start _ | Trace.Request_start _ ->
    () (* not tallied, so never locked: some arrive per iteration *)
  | _ -> Mutex.protect t.mutex (fun () -> tally t event));
  match t.sink with
  | s when s == Sink.null -> ()
  | s ->
    Sink.emit s
      {
        Trace.seq = Atomic.fetch_and_add t.seq 1;
        time = Clock.now ();
        event;
      }

let open_span obs name =
  match obs with
  | None -> ignore
  | Some t ->
    emit t (Trace.Span_open { name });
    let t0 = Clock.now () in
    fun () -> emit t (Trace.Span_close { name; elapsed_s = Clock.now () -. t0 })

let with_span obs name f =
  match obs with
  | None -> f ()
  | Some _ -> Fun.protect ~finally:(open_span obs name) f

(* The end-of-run metrics table.  Keyed lines render their entries in
   sorted key order, and empty sections are omitted entirely, so the
   output is deterministic for a deterministic run (wall-clock values —
   the [phase ...] and mean-time lines — are the exception, which is
   why they carry a recognisable prefix the cram tests filter on). *)
let keyed_line table label =
  let entries =
    Hashtbl.fold (fun k r acc -> (k, !r) :: acc) table []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  match entries with
  | [] -> None
  | entries ->
    Some
      (Printf.sprintf "%s: %s" label
         (String.concat " "
            (List.map (fun (k, n) -> Printf.sprintf "%s=%d" k n) entries)))

let report t =
  Mutex.protect t.mutex @@ fun () ->
  let lines = ref [] in
  let add l = lines := l :: !lines in
  let add_keyed table label = Option.iter add (keyed_line table label) in
  add (Printf.sprintf "solves: %d (%d iterations)" t.solves t.iterations);
  add_keyed t.rungs "rungs";
  add_keyed t.faults "faults";
  add_keyed t.certificates "certificates";
  add_keyed t.candidates "candidates";
  add_keyed t.tighten "tighten";
  add_keyed t.requests "requests";
  add_keyed t.workers "workers";
  if t.restore_hits + t.restore_misses > 0 then
    add
      (Printf.sprintf "restores: %d hit, %d missed" t.restore_hits
         t.restore_misses);
  if t.cache_hits + t.cache_misses > 0 then
    add
      (Printf.sprintf "memo cache: %d hit, %d missed" t.cache_hits
         t.cache_misses);
  if t.sheds > 0 then add (Printf.sprintf "shed: %d" t.sheds);
  if t.dispatched + t.joined > 0 then
    add (Printf.sprintf "pool: %d dispatched, %d joined" t.dispatched t.joined);
  if t.solves > 0 then
    add
      (Printf.sprintf "solve time: %.3f s total, %.4f s mean" t.solve_time_s
         (t.solve_time_s /. float_of_int t.solves));
  Hashtbl.fold (fun k r acc -> (k, !r) :: acc) t.phases []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  |> List.iter (fun (name, s) ->
         add (Printf.sprintf "phase %s: %.3f s" name s));
  List.rev !lines
