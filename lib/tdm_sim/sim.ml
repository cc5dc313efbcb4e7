module Config = Taskgraph.Config

type report = {
  task_period : Config.task -> float;
  graph_period : Config.graph -> float;
  task_completions : Config.task -> float array;
  task_executions : Config.task -> (float * float) array;
  buffer_high_water : Config.buffer -> int;
  buffer_high_water_steady : Config.buffer -> int;
  makespan : float;
}

(* Inlined into the event loop, where its float arguments and result
   then stay unboxed. *)
let[@inline] processing_completion ~window_offset ~budget ~interval ~start
    ~work =
  if budget <= 0.0 || interval <= 0.0 || budget > interval then
    invalid_arg "Sim.processing_completion: invalid window";
  if work < 0.0 then invalid_arg "Sim.processing_completion: negative work";
  let start = Float.max start 0.0 in
  if work <= 0.0 then start
  else begin
    (* Iterate the interval index explicitly: [k] strictly increases, so
       the loop terminates even when floating-point rounding makes
       [floor (t /. interval)] disagree with the index that produced
       [t]. *)
    (* Service can only begin at [max start wstart]; whatever fits
       before the window closes is consumed, the rest rolls over. *)
    let k = ref (Float.max 0.0 (floor (start /. interval) -. 1.0)) in
    let remaining = ref work in
    let finish = ref start in
    let searching = ref true in
    while !searching do
      let wstart = (!k *. interval) +. window_offset in
      let wend = wstart +. budget in
      let begin_service = Float.max start wstart in
      let available = wend -. begin_service in
      if available <= 0.0 then k := !k +. 1.0
      else if !remaining <= available then begin
        finish := begin_service +. !remaining;
        searching := false
      end
      else begin
        remaining := !remaining -. available;
        k := !k +. 1.0
      end
    done;
    !finish
  end

(* ---- the plan: everything fixed by (config, budgets, iterations) -- *)

type plan = {
  cfg : Config.t;
  iterations : int;
  offsets : float array;  (** window offset of every task *)
  budgets : float array;
  intervals : float array;  (** replenishment interval of the processor *)
  wcets : float array;
  in_ptr : int array;
  in_buf : int array;
      (** task [w] consumes from [in_buf.(in_ptr.(w)) ..
          in_buf.(in_ptr.(w + 1) - 1)], ascending buffer id *)
  out_ptr : int array;
  out_buf : int array;  (** produced into, same layout *)
  producer : int array;  (** task id of every buffer's source *)
  consumer : int array;  (** task id of every buffer's destination *)
  initial : int array;  (** initial tokens of every buffer *)
  task_errors : string list;
  proc_errors : string list;
      (** budget-layout errors, latest first; a run reports the task
          errors, then the capacity errors, then these *)
  exact : bool;
      (** the layout is valid, every window offset, budget, interval
          and WCET is an integer, and no run can reach an instant of
          2^52: every event time of a run is then an integer the
          float arithmetic computes exactly *)
}

(* [ptr, idx] lists, for every task, the buffers [owner] maps to it,
   in ascending buffer id. *)
let csr ntasks owner =
  let ptr = Array.make (ntasks + 1) 0 in
  Array.iter (fun w -> ptr.(w + 1) <- ptr.(w + 1) + 1) owner;
  for w = 0 to ntasks - 1 do
    ptr.(w + 1) <- ptr.(w + 1) + ptr.(w)
  done;
  let next = Array.sub ptr 0 ntasks in
  let idx = Array.make (Array.length owner) 0 in
  Array.iteri
    (fun b w ->
      idx.(next.(w)) <- b;
      next.(w) <- next.(w) + 1)
    owner;
  (ptr, idx)

let plan cfg ~budget ~iterations =
  if iterations < 4 then invalid_arg "Sim.plan: iterations must be >= 4";
  let tasks = Array.of_list (Config.all_tasks cfg) in
  let buffers = Array.of_list (Config.all_buffers cfg) in
  let procs = Array.of_list (Config.processors cfg) in
  let budgets = Array.map budget tasks in
  let proc_of i = Config.task_proc cfg tasks.(i) in
  (* Static window layout per processor: overhead first, then one window
     per task in declaration order. *)
  let cursors = Array.map (Config.overhead cfg) procs in
  let offsets =
    Array.mapi
      (fun i _ ->
        let p = Config.proc_id (proc_of i) in
        let offset = cursors.(p) in
        cursors.(p) <- offset +. budgets.(i);
        offset)
      tasks
  in
  let oversubscribed =
    Array.mapi
      (fun i p -> cursors.(i) > Config.replenishment cfg p +. 1e-9)
      procs
  in
  let proc_errors = ref [] in
  Array.iteri
    (fun i p ->
      if oversubscribed.(i) then
        proc_errors :=
          Printf.sprintf "processor %s oversubscribed: %g > %g"
            (Config.proc_name cfg p) cursors.(i)
            (Config.replenishment cfg p)
          :: !proc_errors)
    procs;
  let intervals =
    Array.mapi (fun i _ -> Config.replenishment cfg (proc_of i)) tasks
  in
  let task_errors = ref [] in
  Array.iteri
    (fun i w ->
      let fail fmt =
        Printf.ksprintf (fun s -> task_errors := s :: !task_errors) fmt
      in
      let name = Config.task_name cfg w and beta = budgets.(i) in
      if beta <= 0.0 then fail "task %s: non-positive budget" name
      else if not (Float.is_finite beta) then
        fail "task %s: non-finite budget" name
      else if
        beta > intervals.(i)
        && not oversubscribed.(Config.proc_id (proc_of i))
      then
        (* within the oversubscription slack, but no window fits *)
        fail "task %s: budget %.12g exceeds its replenishment interval %.12g"
          name beta intervals.(i))
    tasks;
  let ntasks = Array.length tasks in
  let producer =
    Array.map (fun b -> Config.task_id (Config.buffer_src cfg b)) buffers
  in
  let consumer =
    Array.map (fun b -> Config.task_id (Config.buffer_dst cfg b)) buffers
  in
  let out_ptr, out_buf = csr ntasks producer in
  let in_ptr, in_buf = csr ntasks consumer in
  let wcets = Array.map (Config.wcet cfg) tasks in
  (* Some task is processing at every instant of a run before its
     makespan, so the makespan is at most the number of executions
     times the longest one: a wait for the window, then ⌈χ/β⌉
     windows. *)
  let exact =
    !task_errors = [] && !proc_errors = []
    && Array.for_all Float.is_integer offsets
    && Array.for_all Float.is_integer budgets
    && Array.for_all Float.is_integer intervals
    && Array.for_all Float.is_integer wcets
    &&
    let longest = ref 0.0 in
    Array.iteri
      (fun i beta ->
        longest :=
          Float.max !longest
            ((Float.ceil (wcets.(i) /. beta) +. 1.0) *. intervals.(i)))
      budgets;
    float_of_int iterations *. float_of_int ntasks *. !longest < 0x1p52
  in
  {
    cfg;
    iterations;
    offsets;
    budgets;
    intervals;
    wcets;
    in_ptr;
    in_buf;
    out_ptr;
    out_buf;
    producer;
    consumer;
    initial = Array.map (Config.initial_tokens cfg) buffers;
    task_errors = !task_errors;
    proc_errors = !proc_errors;
    exact;
  }

let ntasks p = Array.length p.offsets
let nbuffers p = Array.length p.initial

(* ---- the workspace: one run's mutable state, reset by every run --- *)

type workspace = {
  plan : plan;
  record : bool;
      (** keep what only a report reads: the high waters, the
          occupancy log, every completion and claim instant
          ([occ_times], [occ_values], [completions] and [claims] are
          empty otherwise) *)
  capacity : int array;
  filled : int array;  (** containers holding data, ready to consume *)
  empty : int array;  (** containers available to the producer *)
  high_water : int array;  (** max of capacity − empty seen so far *)
  occ_len : int array;
  occ_times : float array;
  occ_values : int array;
      (** buffer [b]'s first [occ_len.(b)] (instant, occupancy) pairs
          from slot [2·iterations·b] on, one at every occupancy change
          in time order: at most one claim per producer execution plus
          one release per consumer execution *)
  fired : int array;  (** completed executions *)
  busy : bool array;
  completions : float array;
      (** task [w]'s first [fired.(w)] completion instants from slot
          [iterations·w] on *)
  claims : float array;  (** claim instant of every started execution *)
  pending : float array;
      (** completion instant of the running execution, or of the last
          one once the task is idle: c_w[iterations − 1] after a
          complete run *)
  mid : float array;  (** c_w[iterations / 2], once reached *)
  clock : float array;  (** [| instant of the current event; makespan |] *)
  events : Heap.t;
}

let make_workspace ~record p =
  let nt = ntasks p and nb = nbuffers p and n = p.iterations in
  let logged = if record then n else 0 in
  {
    plan = p;
    record;
    capacity = Array.make nb 0;
    filled = Array.make nb 0;
    empty = Array.make nb 0;
    high_water = Array.make nb 0;
    occ_len = Array.make nb 0;
    occ_times = Array.make (2 * logged * nb) 0.0;
    occ_values = Array.make (2 * logged * nb) 0;
    fired = Array.make nt 0;
    busy = Array.make nt false;
    completions = Array.make (logged * nt) 0.0;
    claims = Array.make (logged * nt) 0.0;
    pending = Array.make nt 0.0;
    mid = Array.make nt 0.0;
    clock = Array.make 2 0.0;
    events = Heap.create ~capacity:nt ();
  }

let workspace p = make_workspace ~record:false p

let capacity_ok p capacity b = capacity.(b) >= Int.max 1 p.initial.(b)

let[@inline] log_occupancy ws b now =
  let slot = (2 * ws.plan.iterations * b) + ws.occ_len.(b) in
  ws.occ_times.(slot) <- now;
  ws.occ_values.(slot) <- ws.capacity.(b) - ws.empty.(b);
  ws.occ_len.(b) <- ws.occ_len.(b) + 1

(* Try to start an execution of task [id] at the current instant;
   claims one filled container on each input and one empty container
   on each output, then schedules the completion event. *)
let try_start ws execution_time id =
  let p = ws.plan in
  if (not ws.busy.(id)) && ws.fired.(id) < p.iterations then begin
    let ready = ref true in
    for j = p.in_ptr.(id) to p.in_ptr.(id + 1) - 1 do
      if ws.filled.(p.in_buf.(j)) < 1 then ready := false
    done;
    for j = p.out_ptr.(id) to p.out_ptr.(id + 1) - 1 do
      if ws.empty.(p.out_buf.(j)) < 1 then ready := false
    done;
    if !ready then begin
      let now = ws.clock.(0) in
      for j = p.in_ptr.(id) to p.in_ptr.(id + 1) - 1 do
        let b = p.in_buf.(j) in
        ws.filled.(b) <- ws.filled.(b) - 1
      done;
      for j = p.out_ptr.(id) to p.out_ptr.(id + 1) - 1 do
        let b = p.out_buf.(j) in
        ws.empty.(b) <- ws.empty.(b) - 1;
        if ws.record then begin
          if ws.capacity.(b) - ws.empty.(b) > ws.high_water.(b) then
            ws.high_water.(b) <- ws.capacity.(b) - ws.empty.(b);
          log_occupancy ws b now
        end
      done;
      ws.busy.(id) <- true;
      let k = ws.fired.(id) in
      if ws.record then ws.claims.((p.iterations * id) + k) <- now;
      let work =
        match execution_time with
        | None -> p.wcets.(id)
        | Some f ->
          (* Clamp into (0, χ]: the model is only conservative for
             actual times at most the declared worst case. *)
          Float.min p.wcets.(id)
            (Float.max 1e-9 (f (Config.task_of_id p.cfg id) k))
      in
      let finish =
        processing_completion ~window_offset:p.offsets.(id)
          ~budget:p.budgets.(id) ~interval:p.intervals.(id) ~start:now ~work
      in
      ws.pending.(id) <- finish;
      Heap.push_keyed ws.events ws.pending id
    end
  end

let stopped_early = -1

(* Run [ws.plan] at [capacity] (assumed valid).  Returns the number of
   tasks stalled short of the iteration target (0 when the run
   completed), or [stopped_early].

   With a non-empty [threshold] (one per task), the run stops early
   once some task's measured period is bound to exceed its threshold:
   events pop in time order, so every later completion happens at or
   after the current instant [now], and a task [w] past completion
   [k1] of [n] ends with period (c_w[n−1] − c_w[k1]) / (n−1−k1) ≥
   (now − c_w[k1]) / (n−1−k1) — float subtraction and division by a
   positive constant are monotone.  Tasks are scanned only once [now]
   passes [trigger], the earliest instant c_w[k1] + (n−1−k1)·thr_w at
   which that bound can first exceed a threshold. *)
let execute ws ~capacity ~execution_time ~threshold =
  let p = ws.plan in
  let nt = ntasks p and n = p.iterations in
  Array.blit capacity 0 ws.capacity 0 (nbuffers p);
  for b = 0 to nbuffers p - 1 do
    ws.filled.(b) <- p.initial.(b);
    ws.empty.(b) <- capacity.(b) - p.initial.(b);
    ws.high_water.(b) <- p.initial.(b);
    ws.occ_len.(b) <- 0
  done;
  Array.fill ws.fired 0 nt 0;
  Array.fill ws.busy 0 nt false;
  Heap.clear ws.events;
  ws.clock.(0) <- 0.0;
  for id = 0 to nt - 1 do
    try_start ws execution_time id
  done;
  let k1 = n / 2 in
  let span = float_of_int (n - 1 - k1) in
  let watch = Array.length threshold > 0 in
  let trigger = ref infinity in
  let makespan = ref 0.0 in
  let stopped = ref false in
  while (not !stopped) && not (Heap.is_empty ws.events) do
    let id = Heap.take ws.events in
    let now = ws.pending.(id) in
    ws.clock.(0) <- now;
    ws.busy.(id) <- false;
    let k = ws.fired.(id) in
    if ws.record then ws.completions.((n * id) + k) <- now;
    if k = k1 then ws.mid.(id) <- now;
    ws.fired.(id) <- k + 1;
    if now > !makespan then makespan := now;
    if watch then begin
      if k = k1 then
        trigger := Float.min !trigger (now +. (span *. threshold.(id)));
      if now > !trigger then begin
        let next = ref infinity in
        for w = 0 to nt - 1 do
          let fired = ws.fired.(w) in
          if fired > k1 && fired < n then begin
            let c1 = ws.mid.(w) in
            if (now -. c1) /. span > threshold.(w) then stopped := true
            else next := Float.min !next (c1 +. (span *. threshold.(w)))
          end
        done;
        trigger := Float.max !next now
      end
    end;
    if not !stopped then begin
      (* Produced data wakes consumers; released space wakes
         producers. *)
      for j = p.out_ptr.(id) to p.out_ptr.(id + 1) - 1 do
        let b = p.out_buf.(j) in
        ws.filled.(b) <- ws.filled.(b) + 1;
        try_start ws execution_time p.consumer.(b)
      done;
      for j = p.in_ptr.(id) to p.in_ptr.(id + 1) - 1 do
        let b = p.in_buf.(j) in
        ws.empty.(b) <- ws.empty.(b) + 1;
        if ws.record then log_occupancy ws b now;
        try_start ws execution_time p.producer.(b)
      done;
      try_start ws execution_time id
    end
  done;
  ws.clock.(1) <- !makespan;
  if !stopped then stopped_early
  else begin
    let unfinished = ref 0 in
    for w = 0 to nt - 1 do
      if ws.fired.(w) < n then incr unfinished
    done;
    !unfinished
  end

(* Task [w]'s period over the second half of a complete run:
   (c_w[n−1] − c_w[k1]) / (n−1−k1), k1 = n/2. *)
let period ws w =
  let n = ws.plan.iterations in
  (ws.pending.(w) -. ws.mid.(w)) /. float_of_int (n - 1 - (n / 2))

let check_capacity name p capacity =
  if Array.length capacity < nbuffers p then
    invalid_arg (name ^ ": one capacity per buffer")

let meets ws ~capacity ~threshold =
  let p = ws.plan in
  check_capacity "Sim.meets" p capacity;
  if Array.length threshold < ntasks p then
    invalid_arg "Sim.meets: one threshold per task";
  let valid = ref (p.task_errors = [] && p.proc_errors = []) in
  for b = 0 to nbuffers p - 1 do
    if not (capacity_ok p capacity b) then valid := false
  done;
  !valid
  && execute ws ~capacity ~execution_time:None ~threshold = 0
  &&
  let ok = ref true in
  for w = 0 to ntasks p - 1 do
    if not (period ws w <= threshold.(w)) then ok := false
  done;
  !ok

(* The token cycle of buffer [b] (docs/tightening.md, "Cycle bound"):
   with F_T(t) the completion of χ_T started at [t] in T's window and
   G = F_P ∘ F_C, every run has c_P[k+c] ≥ G(c_P[k]).  G is
   non-decreasing and commutes with a shift by the shared interval ̺,
   so c_P[k1 + M·c] − c_P[k1] > G^M(0) − ̺, and the producer's
   measured period exceeds (G^M(0) − ̺)/span.  Exact event times make
   every step of that chain hold in floats too. *)
let cycle_refutes p ~buffer:b ~capacity:c ~threshold =
  let pr = p.producer.(b) and co = p.consumer.(b) in
  let n = p.iterations in
  let span = n - 1 - (n / 2) in
  p.exact && pr <> co
  && p.intervals.(pr) = p.intervals.(co)
  && c >= Int.max 1 p.initial.(b)
  && span / c >= 1
  &&
  let complete id start =
    processing_completion ~window_offset:p.offsets.(id)
      ~budget:p.budgets.(id) ~interval:p.intervals.(id) ~start
      ~work:p.wcets.(id)
  in
  let t = ref 0.0 in
  for _ = 1 to span / c do
    t := complete pr (complete co !t)
  done;
  (!t -. p.intervals.(pr)) /. float_of_int span > threshold.(pr)

let report ws =
  let p = ws.plan in
  let cfg = p.cfg and n = p.iterations in
  let task_period w = period ws (Config.task_id w) in
  let makespan = ws.clock.(1) in
  {
    task_period;
    graph_period =
      (fun g ->
        List.fold_left
          (fun acc w -> Float.max acc (task_period w))
          0.0 (Config.tasks cfg g));
    task_completions =
      (fun w -> Array.sub ws.completions (n * Config.task_id w) n);
    task_executions =
      (fun w ->
        let base = n * Config.task_id w in
        Array.init n (fun k ->
            (ws.claims.(base + k), ws.completions.(base + k))));
    buffer_high_water = (fun b -> ws.high_water.(Config.buffer_id b));
    buffer_high_water_steady =
      (fun b ->
        (* Max occupancy over the second half of the run.  The
           occupancy carried into the window counts: [current] is
           folded into the max both at the first in-window change and
           at the end of the log (a buffer whose occupancy never
           changes after the midpoint still holds [current]
           containers throughout). *)
        let b = Config.buffer_id b in
        let base = 2 * n * b in
        let half = makespan /. 2.0 in
        let current = ref p.initial.(b) and best = ref min_int in
        for i = base to base + ws.occ_len.(b) - 1 do
          let occ = ws.occ_values.(i) in
          if ws.occ_times.(i) >= half then
            best := Int.max (Int.max !best !current) occ;
          current := occ
        done;
        Int.max !best !current);
    makespan;
  }

let simulate p ~capacity ?execution_time () =
  check_capacity "Sim.simulate" p capacity;
  let capacity_errors = ref [] in
  for b = 0 to nbuffers p - 1 do
    if not (capacity_ok p capacity b) then
      capacity_errors :=
        Printf.sprintf "buffer %s: invalid capacity %d"
          (Config.buffer_name p.cfg (Config.buffer_of_id p.cfg b))
          capacity.(b)
        :: !capacity_errors
  done;
  match p.task_errors @ !capacity_errors @ p.proc_errors with
  | _ :: _ as errs -> Error (String.concat "; " errs)
  | [] ->
    let ws = make_workspace ~record:true p in
    let unfinished =
      execute ws ~capacity ~execution_time ~threshold:[||]
    in
    if unfinished > 0 then
      Error
        (Printf.sprintf "deadlock: %d task(s) stalled before reaching %d \
                         executions"
           unfinished p.iterations)
    else Ok (report ws)

let run cfg (mapped : Config.mapped) ~iterations ?execution_time () =
  if iterations < 4 then invalid_arg "Sim.run: iterations must be >= 4";
  let capacity =
    Array.of_list (List.map mapped.Config.capacity (Config.all_buffers cfg))
  in
  simulate
    (plan cfg ~budget:mapped.Config.budget ~iterations)
    ~capacity ?execution_time ()
