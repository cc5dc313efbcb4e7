(* The shared durable fan-out: restore journal hits, run the missing
   candidates (on a pool when given) behind one per-candidate deadline
   and exception barrier, emit each verdict, journal each completion,
   and stop cleanly — never mid-candidate — when the deadline expires
   or the caller cancels.  Slots that were neither restored nor run
   come back [None]; the caller decides how to present a partial
   sweep. *)

type progress = {
  total : int;
  resumed : int;
  discarded : int;
  solved : int;
  not_run : int;
}

let candidate_deadline deadline budget =
  let deadline = Option.value deadline ~default:Deadline.none in
  match budget with
  | None -> deadline
  | Some s -> Deadline.combine deadline (Deadline.after s)

let run ?pool ?journal ?obs ?deadline ?candidate_deadline:budget ?cancel
    ?on_progress ~encode ~decode ~verdict ~failed ~n f =
  if n < 0 then invalid_arg "Durable.Sweep.run: n must be >= 0";
  let results = Array.make (Int.max n 1) None in
  let resumed = ref 0 and discarded = ref 0 in
  (match journal with
  | None -> ()
  | Some j ->
    let accepted =
      List.filter
        (fun { Journal.index; payload } ->
          index >= 0 && index < n
          &&
          match results.(index) with
          | Some _ -> false (* duplicate record: first one wins *)
          | None -> (
            match decode index payload with
            | Some v ->
              results.(index) <- Some v;
              incr resumed;
              true
            | None ->
              incr discarded;
              false))
        (Journal.entries j)
    in
    (* Drop the refused records from the file, so the next resume
       neither decodes nor counts them again. *)
    if !discarded > 0 then Journal.replace j ~entries:accepted;
    (* One restore verdict per slot, hit or miss — only meaningful (and
       only emitted) when a journal was consulted at all. *)
    match obs with
    | None -> ()
    | Some o ->
      for i = 0 to n - 1 do
        Obs.Ctx.emit o
          (Obs.Trace.Restore { index = i; hit = results.(i) <> None })
      done);
  let stop =
    let cancelled =
      match cancel with None -> fun () -> false | Some c -> c
    in
    let sweep = Option.value deadline ~default:Deadline.none in
    fun () -> cancelled () || Deadline.expired sweep
  in
  let counter = Mutex.create () in
  let solved = ref 0 in
  let solve_one i =
    (* The budget starts with the candidate; an invalid one raises here,
       outside the barrier, and reaches the caller at the join. *)
    let deadline = candidate_deadline deadline budget in
    let v = match f ~deadline i with v -> v | exception e -> failed i e in
    (match obs with
    | None -> ()
    | Some o ->
      Obs.Ctx.emit o (Obs.Trace.Candidate { index = i; verdict = verdict v }));
    (* Journal before counting: if the fsync raises, the candidate is
       not reported as saved. *)
    (match journal with
    | None -> ()
    | Some j -> (
      match encode v with
      | None -> () (* not a final verdict (e.g. timed out): re-solve on resume *)
      | Some payload -> Journal.record j ~index:i ~payload));
    Mutex.lock counter;
    incr solved;
    Mutex.unlock counter;
    v
  in
  let todo =
    List.filter
      (fun i -> match results.(i) with None -> true | Some _ -> false)
      (List.init n Fun.id)
  in
  (match pool with
  | None ->
    List.iter
      (fun i -> if not (stop ()) then results.(i) <- Some (solve_one i))
      todo
  | Some pool ->
    List.iter2
      (fun i r ->
        match r with
        | Ok v -> results.(i) <- Some v
        | Error Parallel.Pool.Cancelled -> ()
        | Error e -> raise e)
      todo
      (Parallel.Pool.map_result ~cancel:stop ?obs pool solve_one todo));
  let progress =
    {
      total = n;
      resumed = !resumed;
      discarded = !discarded;
      solved = !solved;
      not_run = n - !resumed - !solved;
    }
  in
  Option.iter (fun report -> report progress) on_progress;
  ((if n = 0 then [||] else results), progress)
