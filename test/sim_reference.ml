(* A second, independent simulator kept as the test oracle: records
   per task and buffer, input and output lists, a polymorphic
   swap-based event heap and a recursive window walk.  [run] must agree
   with [Tdm_sim.Sim.run] bit for bit on every report field and every
   error string. *)

module Config = Taskgraph.Config

type report = Tdm_sim.Sim.report = {
  task_period : Config.task -> float;
  graph_period : Config.graph -> float;
  task_completions : Config.task -> float array;
  task_executions : Config.task -> (float * float) array;
  buffer_high_water : Config.buffer -> int;
  buffer_high_water_steady : Config.buffer -> int;
  makespan : float;
}

module Heap = struct
  type 'a entry = { key : float; seq : int; value : 'a }

  type 'a t = {
    mutable data : 'a entry array;
    mutable len : int;
    mutable next_seq : int;
  }

  let create () = { data = [||]; len = 0; next_seq = 0 }

  let less a b = a.key < b.key || (a.key = b.key && a.seq < b.seq)

  let swap h i j =
    let t = h.data.(i) in
    h.data.(i) <- h.data.(j);
    h.data.(j) <- t

  let rec sift_up h i =
    if i > 0 then begin
      let parent = (i - 1) / 2 in
      if less h.data.(i) h.data.(parent) then begin
        swap h i parent;
        sift_up h parent
      end
    end

  let rec sift_down h i =
    let l = (2 * i) + 1 and r = (2 * i) + 2 in
    let smallest = ref i in
    if l < h.len && less h.data.(l) h.data.(!smallest) then smallest := l;
    if r < h.len && less h.data.(r) h.data.(!smallest) then smallest := r;
    if !smallest <> i then begin
      swap h i !smallest;
      sift_down h !smallest
    end

  let push h key value =
    let entry = { key; seq = h.next_seq; value } in
    h.next_seq <- h.next_seq + 1;
    let cap = Array.length h.data in
    if h.len >= cap then begin
      let ncap = Int.max 8 (2 * cap) in
      let fresh = Array.make ncap entry in
      Array.blit h.data 0 fresh 0 h.len;
      h.data <- fresh
    end;
    h.data.(h.len) <- entry;
    h.len <- h.len + 1;
    sift_up h (h.len - 1)

  let pop h =
    if h.len = 0 then None
    else begin
      let top = h.data.(0) in
      h.len <- h.len - 1;
      if h.len > 0 then begin
        h.data.(0) <- h.data.(h.len);
        sift_down h 0
      end;
      Some (top.key, top.value)
    end
end

let processing_completion ~window_offset ~budget ~interval ~start ~work =
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
    let rec advance k remaining =
      let wstart = (k *. interval) +. window_offset in
      let wend = wstart +. budget in
      let begin_service = Float.max start wstart in
      let available = wend -. begin_service in
      if available <= 0.0 then advance (k +. 1.0) remaining
      else if remaining <= available then begin_service +. remaining
      else advance (k +. 1.0) (remaining -. available)
    in
    advance (Float.max 0.0 (floor (start /. interval) -. 1.0)) work
  end

(* Mutable per-entity simulation state, held in arrays indexed by the
   dense buffer and task ids. *)
type buffer_state = {
  mutable filled : int;  (** containers holding data, ready to consume *)
  mutable empty : int;   (** containers available to a producer *)
  capacity : int;
  mutable high_water : int;  (** max of capacity − empty seen so far *)
  initial_occ : int;  (** occupancy at time 0: the initial tokens *)
  occ_times : float array;
  occ_values : int array;
      (** the first [occ_len] (instant, occupancy) pairs, one at every
          occupancy change in time order: at most one claim per
          producer execution plus one release per consumer execution *)
  mutable occ_len : int;
  producer : int;  (** task id of the source *)
  consumer : int;  (** task id of the destination *)
}

type task_state = {
  mutable fired : int;        (** completed executions *)
  mutable busy : bool;
  completions : float array;  (** the first [fired] completion instants *)
  claim_times : float array;  (** claim instant of every started execution *)
  window_offset : float;
  budget : float;
  interval : float;
  wcet : float;
  mutable inputs : buffer_state list;   (** consumed from, ascending id *)
  mutable outputs : buffer_state list;  (** produced into, ascending id *)
}

let run cfg (mapped : Config.mapped) ~iterations ?execution_time () =
  if iterations < 4 then invalid_arg "Sim.run: iterations must be >= 4";
  let tasks = Array.of_list (Config.all_tasks cfg) in
  let buffers = Array.of_list (Config.all_buffers cfg) in
  let procs = Array.of_list (Config.processors cfg) in
  (* Static window layout per processor: overhead first, then one window
     per task in declaration order. *)
  let cursors = Array.map (Config.overhead cfg) procs in
  let offsets =
    Array.map
      (fun w ->
        let p = Config.proc_id (Config.task_proc cfg w) in
        let offset = cursors.(p) in
        cursors.(p) <- offset +. mapped.Config.budget w;
        offset)
      tasks
  in
  let layout_errors = ref [] in
  Array.iteri
    (fun i p ->
      if cursors.(i) > Config.replenishment cfg p +. 1e-9 then
        layout_errors :=
          Printf.sprintf "processor %s oversubscribed: %g > %g"
            (Config.proc_name cfg p) cursors.(i)
            (Config.replenishment cfg p)
          :: !layout_errors)
    procs;
  let bstates =
    Array.map
      (fun b ->
        let cap = mapped.Config.capacity b in
        let iota = Config.initial_tokens cfg b in
        if cap < Int.max 1 iota then
          layout_errors :=
            Printf.sprintf "buffer %s: invalid capacity %d"
              (Config.buffer_name cfg b) cap
            :: !layout_errors;
        {
          filled = iota;
          empty = cap - iota;
          capacity = cap;
          high_water = iota;
          initial_occ = iota;
          occ_times = Array.make (2 * iterations) 0.0;
          occ_values = Array.make (2 * iterations) 0;
          occ_len = 0;
          producer = Config.task_id (Config.buffer_src cfg b);
          consumer = Config.task_id (Config.buffer_dst cfg b);
        })
      buffers
  in
  let tstates =
    Array.mapi
      (fun i w ->
        let beta = mapped.Config.budget w in
        let p = Config.task_proc cfg w in
        if beta <= 0.0 then
          layout_errors :=
            Printf.sprintf "task %s: non-positive budget"
              (Config.task_name cfg w)
            :: !layout_errors;
        {
          fired = 0;
          busy = false;
          completions = Array.make iterations 0.0;
          claim_times = Array.make iterations 0.0;
          window_offset = offsets.(i);
          budget = beta;
          interval = Config.replenishment cfg p;
          wcet = Config.wcet cfg w;
          inputs = [];
          outputs = [];
        })
      tasks
  in
  (* One pass over the buffers, last to first, leaves every task's
     input and output lists in ascending buffer-id order. *)
  for b = Array.length bstates - 1 downto 0 do
    let bs = bstates.(b) in
    let src = tstates.(bs.producer) and dst = tstates.(bs.consumer) in
    src.outputs <- bs :: src.outputs;
    dst.inputs <- bs :: dst.inputs
  done;
  match !layout_errors with
  | _ :: _ as errs -> Error (String.concat "; " errs)
  | [] ->
    let log_occupancy bs now =
      bs.occ_times.(bs.occ_len) <- now;
      bs.occ_values.(bs.occ_len) <- bs.capacity - bs.empty;
      bs.occ_len <- bs.occ_len + 1
    in
    let events = Heap.create () in
    let makespan = ref 0.0 in
    (* Try to start an execution of the task at time [now]; claims one
       filled container on each input and one empty container on each
       output, then schedules the completion event. *)
    let try_start now id =
      let st = tstates.(id) in
      if (not st.busy) && st.fired < iterations then begin
        let ready =
          List.for_all (fun bs -> bs.filled >= 1) st.inputs
          && List.for_all (fun bs -> bs.empty >= 1) st.outputs
        in
        if ready then begin
          List.iter (fun bs -> bs.filled <- bs.filled - 1) st.inputs;
          List.iter
            (fun bs ->
              bs.empty <- bs.empty - 1;
              if bs.capacity - bs.empty > bs.high_water then
                bs.high_water <- bs.capacity - bs.empty;
              log_occupancy bs now)
            st.outputs;
          st.busy <- true;
          st.claim_times.(st.fired) <- now;
          let work =
            match execution_time with
            | None -> st.wcet
            | Some f ->
              (* Clamp into (0, χ]: the model is only conservative for
                 actual times at most the declared worst case. *)
              Float.min st.wcet
                (Float.max 1e-9 (f (Config.task_of_id cfg id) st.fired))
          in
          let finish =
            processing_completion ~window_offset:st.window_offset
              ~budget:st.budget ~interval:st.interval ~start:now ~work
          in
          Heap.push events finish id
        end
      end
    in
    for id = 0 to Array.length tstates - 1 do
      try_start 0.0 id
    done;
    let rec drain () =
      match Heap.pop events with
      | None -> ()
      | Some (now, id) ->
        let st = tstates.(id) in
        st.busy <- false;
        st.completions.(st.fired) <- now;
        st.fired <- st.fired + 1;
        if now > !makespan then makespan := now;
        (* Produced data wakes consumers; released space wakes
           producers. *)
        List.iter
          (fun bs ->
            bs.filled <- bs.filled + 1;
            try_start now bs.consumer)
          st.outputs;
        List.iter
          (fun bs ->
            bs.empty <- bs.empty + 1;
            log_occupancy bs now;
            try_start now bs.producer)
          st.inputs;
        try_start now id;
        drain ()
    in
    drain ();
    let unfinished =
      Array.fold_left
        (fun n st -> if st.fired < iterations then n + 1 else n)
        0 tstates
    in
    if unfinished > 0 then
      Error
        (Printf.sprintf "deadlock: %d task(s) stalled before reaching %d \
                         executions"
           unfinished iterations)
    else begin
      let task_period w =
        let arr = tstates.(Config.task_id w).completions in
        let n = Array.length arr in
        let k1 = n / 2 and k2 = n - 1 in
        (arr.(k2) -. arr.(k1)) /. float_of_int (k2 - k1)
      in
      Ok
        {
          task_period;
          graph_period =
            (fun g ->
              List.fold_left
                (fun acc w -> Float.max acc (task_period w))
                0.0 (Config.tasks cfg g));
          task_completions =
            (fun w -> tstates.(Config.task_id w).completions);
          task_executions =
            (fun w ->
              let st = tstates.(Config.task_id w) in
              Array.map2 (fun c e -> (c, e)) st.claim_times st.completions);
          buffer_high_water =
            (fun b -> bstates.(Config.buffer_id b).high_water);
          buffer_high_water_steady =
            (fun b ->
              (* Max occupancy over the second half of the run.  The
                 occupancy carried into the window counts: [current]
                 is folded into the max both at the first in-window
                 change and at the end of the log (a buffer whose
                 occupancy never changes after the midpoint still
                 holds [current] containers throughout). *)
              let bs = bstates.(Config.buffer_id b) in
              let half = !makespan /. 2.0 in
              let current = ref bs.initial_occ and best = ref min_int in
              for i = 0 to bs.occ_len - 1 do
                let occ = bs.occ_values.(i) in
                if bs.occ_times.(i) >= half then
                  best := Int.max (Int.max !best !current) occ;
                current := occ
              done;
              Int.max !best !current);
          makespan = !makespan;
        }
    end
