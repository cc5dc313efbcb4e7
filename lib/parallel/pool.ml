type t = {
  lanes : int;
  mutex : Mutex.t;
  cond : Condition.t;
      (* signalled on: new work, a map completing, shutdown *)
  queue : (unit -> unit) Queue.t;
  mutable shutdown : bool;
  mutable finished : bool;
  mutable workers : unit Domain.t array;
}

let default_domains () =
  match Sys.getenv_opt "BUDGETBUF_JOBS" with
  | None -> Int.max 1 (Domain.recommended_domain_count ())
  | Some s when String.trim s = "" ->
    Int.max 1 (Domain.recommended_domain_count ())
  | Some s -> begin
    match int_of_string_opt (String.trim s) with
    | Some n when n >= 1 -> n
    | Some _ | None ->
      invalid_arg
        (Printf.sprintf "BUDGETBUF_JOBS must be a positive integer, got %S" s)
  end

let worker t =
  let rec loop () =
    Mutex.lock t.mutex;
    next ()
  and next () =
    (* precondition: t.mutex held *)
    match Queue.take_opt t.queue with
    | Some task ->
      Mutex.unlock t.mutex;
      task () (* tasks capture their own exceptions *);
      loop ()
    | None ->
      if t.shutdown then Mutex.unlock t.mutex
      else begin
        Condition.wait t.cond t.mutex;
        next ()
      end
  in
  loop ()

let create ~domains =
  if domains < 1 then invalid_arg "Parallel.Pool.create: domains must be >= 1";
  let t =
    {
      lanes = domains;
      mutex = Mutex.create ();
      cond = Condition.create ();
      queue = Queue.create ();
      shutdown = false;
      finished = false;
      workers = [||];
    }
  in
  t.workers <-
    Array.init (domains - 1) (fun _ -> Domain.spawn (fun () -> worker t));
  t

let domains t = t.lanes

exception Cancelled

(* Shared fan-out engine: runs [f] over [xs] on the pool and returns
   one captured outcome per input slot.  [map] and [map_result] differ
   only in how they join the outcomes.  [cancel] is polled once per
   task, before it starts: tasks already running are drained to
   completion (their results are kept), tasks not yet started record
   [Cancelled] without running — the pool itself is never torn down. *)
let execute ?cancel ?obs t ~caller f xs =
  if t.finished then
    invalid_arg (Printf.sprintf "Parallel.Pool.%s: pool already finalised" caller);
  match xs with
  | [] -> [||]
  | xs ->
    let input = Array.of_list xs in
    let n = Array.length input in
    let results = Array.make n None in
    let remaining = ref n in
    let cancelled () = match cancel with None -> false | Some c -> c () in
    let emit ev =
      match obs with None -> () | Some o -> Obs.Ctx.emit o ev
    in
    (* Each task writes its own slot: result order is fixed by the
       input, not by the schedule. *)
    let task_for i () =
      let r, ran =
        if cancelled () then (Error (Cancelled, Printexc.get_callstack 0), false)
        else begin
          emit (Obs.Trace.Task_dispatch { index = i });
          match f input.(i) with
          | v -> (Ok v, true)
          | exception e -> (Error (e, Printexc.get_raw_backtrace ()), true)
        end
      in
      (* The join event must precede the completion handshake below:
         once [remaining] hits 0 the submitter returns and the caller
         may read the metrics, so an event emitted after the decrement
         could be lost to that read. *)
      if ran then
        emit
          (Obs.Trace.Task_join
             { index = i; ok = (match r with Ok _ -> true | Error _ -> false) });
      Mutex.lock t.mutex;
      results.(i) <- Some r;
      decr remaining;
      if !remaining = 0 then Condition.broadcast t.cond;
      Mutex.unlock t.mutex
    in
    Mutex.lock t.mutex;
    for i = 0 to n - 1 do
      Queue.add (task_for i) t.queue
    done;
    Condition.broadcast t.cond;
    (* The submitter drains the queue too (this is the whole pool when
       [domains = 1], and what makes nested maps deadlock-free), then
       sleeps until its last outstanding task completes. *)
    let rec drive () =
      (* precondition: t.mutex held *)
      if !remaining = 0 then Mutex.unlock t.mutex
      else begin
        match Queue.take_opt t.queue with
        | Some task ->
          Mutex.unlock t.mutex;
          task ();
          Mutex.lock t.mutex;
          drive ()
        | None ->
          Condition.wait t.cond t.mutex;
          drive ()
      end
    in
    drive ();
    Array.map
      (function
        | Some r -> r
        | None -> assert false)
      results

let map ?obs t f xs =
  let results = execute ?obs t ~caller:"map" f xs in
  (* Deterministic join: re-raise the earliest failure, independent of
     which domain hit it first.  Successful results are discarded on
     that path — callers who need them use [map_result]. *)
  Array.iter
    (function
      | Error (e, bt) -> Printexc.raise_with_backtrace e bt
      | Ok _ -> ())
    results;
  Array.to_list (Array.map (function Ok v -> v | Error _ -> assert false) results)

let map_result ?cancel ?obs t f xs =
  let results = execute ?cancel ?obs t ~caller:"map_result" f xs in
  Array.to_list
    (Array.map (function Ok v -> Ok v | Error (e, _bt) -> Error e) results)

let fini t =
  if not t.finished then begin
    t.finished <- true;
    Mutex.lock t.mutex;
    t.shutdown <- true;
    Condition.broadcast t.cond;
    Mutex.unlock t.mutex;
    Array.iter Domain.join t.workers;
    t.workers <- [||]
  end

let with_pool ~domains f =
  let t = create ~domains in
  Fun.protect ~finally:(fun () -> fini t) (fun () -> f t)
