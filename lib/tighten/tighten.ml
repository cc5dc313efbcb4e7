module Config = Taskgraph.Config
module Sim = Tdm_sim.Sim
module Durability = Budgetbuf.Durability

(* Simulator-in-the-loop buffer tightening (docs/tightening.md).

   The dataflow model is conservative: a mapping admitting a PAS with
   period µ simulates at a steady-state period ≤ µ, so the analytic
   capacities usually overshoot what the platform needs.  Per buffer we
   run a dichotomy between the exact lower bound max(1, ι) and the
   analytic capacity.  The feasibility oracle is a fixed-horizon
   simulation compared against a threshold period: [Sim.meets] on one
   plan of the analytic budgets, which stops a run as soon as its
   verdict is known to be a miss.  Each probe first asks
   [Sim.cycle_refutes] whether the probed buffer's own token cycle
   already forces a miss; a refuted capacity is infeasible without a
   simulation.  Feasibility is monotone in capacity
   (budget schedulers are temporally monotone: more empty space can
   only let the producer start earlier), so binary search is sound.

   Determinism contract: each buffer's search probes candidate
   configurations built from the *analytic* capacities plus one
   overridden buffer, so per-buffer results are independent of search
   order — bit-identical across [--jobs 1] / [--jobs 4] and across
   kill + resume.  The combined minimum is then re-simulated once; if
   the combination misses the target (per-buffer minima need not
   compose), a sequential repair pass re-tightens each buffer against
   the already-accepted prefix, which maintains joint feasibility by
   construction and is equally deterministic.  The repair pass may
   only trust the *analytic* capacity as its unprobed upper bound (the
   baseline high waters were measured against the unmodified analytic
   configuration, which no longer exists once earlier buffers have
   been tightened), and the final repaired configuration is
   re-simulated once, falling back to the certified analytic
   capacities on any disagreement. *)

type outcome = {
  buffer_id : int;
  analytic : int;  (** capacity in the certified analytic mapping *)
  floor : int;  (** exact SRDF lower bound max(1, ι) *)
  tightened : int;  (** accepted capacity, [floor ≤ tightened ≤ analytic] *)
  probes : int;  (** capacities this buffer's search tested *)
  refuted : int;
      (** of [probes], the capacities the cycle bound refuted without
          a simulation *)
  skipped : string option;
      (** [Some reason] when the search did not finish (per-candidate
          deadline, global deadline, cancellation, crash) and the
          buffer fell back to its analytic capacity *)
}

type t = {
  mapped : Config.mapped;
  outcomes : outcome list;  (** dense buffer-id order *)
  analytic_containers : int;
  tightened_containers : int;
  probes : int;  (** total simulator runs, joint checks included *)
  refuted : int;  (** probes the cycle bound decided, repair included *)
  repaired : bool;
      (** the independent minima missed the target jointly and the
          sequential repair pass produced the final capacities *)
  progress : Durable.Sweep.progress;
}

(* The oracle threshold.  The measured mean period carries an O(1/n)
   startup bias (the completion curve approaches its steady slope from
   below), so even a certified mapping measures a few percent above µ
   at short horizons.  Comparing a candidate against µ alone would
   therefore reject sound capacities; the differential threshold is
   max(µ, the analytic baseline's own measured period) — same
   simulator, same horizon, same bias — with a relative guard for
   float noise.  A candidate passes iff it is no slower than whichever
   of the target and the analytic mapping is the weaker bar. *)
let threshold mu = (mu *. (1.0 +. 1e-9)) +. 1e-12

(* Tighten's hard margin: a baseline this far past µ is broken, not a
   start-up transient. *)
let hard_margin = 1.5

(* One threshold per task, indexed by task id: its graph's. *)
let thresholds cfg (baseline : Sim.report) =
  let per_graph =
    List.map
      (fun g ->
        ( g,
          threshold
            (Float.max (Config.period cfg g) (baseline.Sim.graph_period g)) ))
      (Config.graphs cfg)
  in
  Array.of_list
    (List.map
       (fun w -> List.assoc (Config.task_graph cfg w) per_graph)
       (Config.all_tasks cfg))

(* ---- journal codec (docs/formats.md) ----------------------------- *)

let encode_outcome o =
  match o.skipped with
  | Some _ -> None (* not a final verdict: a resume retries the buffer *)
  | None ->
    Some
      (Printf.sprintf "ok %d %d %d %d" o.analytic o.floor o.tightened o.probes)

(* A record keeps the capacities tested, not which of them the cycle
   bound decided: [replay] reruns the search with the recorded answer
   as its oracle, which retraces the recorded probes exactly (every
   failed probe lies below the answer, every accepted one at or above
   it), and the record is kept only when it agrees. *)
let decode_outcome ~analytic ~floor ~replay payload =
  match
    let ib = Scanf.Scanning.from_string payload in
    if Durability.scan_token ib <> "ok" then None
    else begin
      let a = Durability.scan_int ib in
      let f = Durability.scan_int ib in
      let t = Durability.scan_int ib in
      let p = Durability.scan_int ib in
      (* A record for different bounds (changed config, bank granule
         fingerprint collision) is discarded and the buffer re-solved. *)
      if a <> analytic || f <> floor || t < floor || t > analytic || p < 0 then
        None
      else
        let r = replay ~answer:t in
        if r.tightened = t && r.probes = p && r.skipped = None then Some r
        else None
    end
  with
  | v -> v
  | exception (Scanf.Scan_failure _ | Failure _ | End_of_file | Not_found) ->
    None

(* ---- the engine -------------------------------------------------- *)

let run ?pool ?journal ?deadline ?candidate_deadline ?cancel ?obs ?on_progress
    ?(iterations = 64) ?(bank = 1) cfg (mapped : Config.mapped) =
  if bank < 1 then invalid_arg "Tighten.run: bank granule must be >= 1";
  if iterations < 4 then invalid_arg "Tighten.run: iterations must be >= 4";
  let buffers = Config.all_buffers cfg in
  let n = List.length buffers in
  let analytic_caps = Array.make (Int.max n 1) 1 in
  List.iter
    (fun b -> analytic_caps.(Config.buffer_id b) <- mapped.Config.capacity b)
    buffers;
  let mapped_with caps =
    {
      Config.budget = mapped.Config.budget;
      capacity = (fun b -> caps.(Config.buffer_id b));
    }
  in
  (* Budgets never change across probes: one plan serves every run. *)
  let plan = Sim.plan cfg ~budget:mapped.Config.budget ~iterations in
  (* Baseline: the analytic mapping itself, which also yields the
     per-buffer high waters seeding each search. *)
  match Sim.simulate plan ~capacity:analytic_caps () with
  | Error e -> Error (Printf.sprintf "analytic mapping does not simulate: %s" e)
  | Ok baseline ->
    if
      List.exists
        (fun g ->
          baseline.Sim.graph_period g
          > hard_margin *. Config.period cfg g)
        (Config.graphs cfg)
    then
      Error
        "analytic mapping misses its throughput target in simulation; \
         nothing to tighten against"
    else begin
      let threshold = thresholds cfg baseline in
      let meets ws caps = Sim.meets ws ~capacity:caps ~threshold in
      let probes_extra = ref 1 (* the baseline run *) in
      let refuted_extra = ref 0 in
      let floor_of b = Int.max 1 (Config.initial_tokens cfg b) in
      (* Buffer [i] at its analytic capacity, its search cut short. *)
      let kept i reason =
        {
          buffer_id = i;
          analytic = analytic_caps.(i);
          floor = floor_of (Config.buffer_of_id cfg i);
          tightened = analytic_caps.(i);
          probes = 0;
          refuted = 0;
          skipped = Some reason;
        }
      in
      (* Search one buffer: dichotomy over bank levels k with candidate
         capacity min(hi, k·bank).  [hi] is accepted without a probe,
         so the caller must pass a bound that is feasible against
         whatever configuration [probe] tests: phase 1 passes
         min(analytic, full-run high water) — capping a buffer at a
         level the baseline trace never exceeded replays that trace
         verbatim — while the repair pass passes the analytic capacity
         itself, feasible by the joint invariant.  [seeds] are probed
         before bisecting, in order: a hit halves the interval
         immediately.  Every probe overrides this one buffer, so the
         cycle bound, which holds whatever the other buffers hold,
         decides first; [probe] simulates only what it leaves open. *)
      let search_buffer ~probe ~deadline ~on_probe ~hi ~seeds buffer_id =
        let b = Config.buffer_of_id cfg buffer_id in
        let analytic = analytic_caps.(buffer_id) in
        let floor = floor_of b in
        let level c = (c + bank - 1) / bank in
        let cap_of k = Int.min hi (k * bank) in
        let probes = ref 0 and refuted = ref 0 in
        let skipped = ref None in
        let try_cap cap =
          if Durable.Deadline.expired deadline then begin
            skipped := Some "timed out";
            false
          end
          else begin
            incr probes;
            if Sim.cycle_refutes plan ~buffer:buffer_id ~capacity:cap ~threshold
            then begin
              incr refuted;
              on_probe b cap false "cycle";
              false
            end
            else begin
              let ok = probe b cap in
              on_probe b cap ok "sim";
              ok
            end
          end
        in
        let lo_k = ref (level floor) and hi_k = ref (level hi) in
        List.iter
          (fun s ->
            let s = Int.min hi (Int.max floor s) in
            if level s < !hi_k && !skipped = None then begin
              if try_cap (cap_of (level s)) then hi_k := level s
              else lo_k := Int.max !lo_k (level s + 1)
            end)
          seeds;
        while !lo_k < !hi_k && !skipped = None do
          let mid = (!lo_k + !hi_k) / 2 in
          if try_cap (cap_of mid) then hi_k := mid else lo_k := mid + 1
        done;
        {
          buffer_id;
          analytic;
          floor;
          tightened = (if !skipped = None then cap_of !hi_k else analytic);
          probes = !probes;
          refuted = !refuted;
          skipped = !skipped;
        }
      in
      let emit_probe b cap ok layer =
        match obs with
        | None -> ()
        | Some o ->
          Obs.Ctx.emit o
            (Obs.Trace.Tighten_probe
               {
                 buffer = Config.buffer_name cfg b;
                 capacity = cap;
                 feasible = ok;
                 layer;
               })
      in
      let emit_decision (r : outcome) =
        match (obs, r.skipped) with
        | None, _ | _, Some _ -> ()
        | Some o, None ->
          let buffer =
            Config.buffer_name cfg (Config.buffer_of_id cfg r.buffer_id)
          in
          Obs.Ctx.emit o
            (if r.tightened < r.analytic then
               Obs.Trace.Tighten_accept
                 {
                   buffer;
                   capacity = r.tightened;
                   saved = r.analytic - r.tightened;
                 }
             else Obs.Trace.Tighten_reject { buffer; capacity = r.analytic })
      in
      (* Phase 1: independent per-buffer searches, fanned out on the
         pool, journaled per buffer.  Each search owns its workspace and
         capacity vector, so concurrent searches share only the
         immutable plan. *)
      let search_phase1 ~probe ~deadline ~on_probe index =
        let b = Config.buffer_of_id cfg index in
        let hw =
          Int.min analytic_caps.(index)
            (Int.max (floor_of b) (Sim.(baseline.buffer_high_water) b))
        in
        search_buffer ~probe ~deadline ~on_probe ~hi:hw
          ~seeds:[ Sim.(baseline.buffer_high_water_steady) b ]
          index
      in
      let solve_buffer ~deadline index =
        (* allocated by the first probe the cycle bound leaves open *)
        let state = lazy (Sim.workspace plan, Array.copy analytic_caps) in
        let probe b cap =
          let ws, caps = Lazy.force state in
          caps.(Config.buffer_id b) <- cap;
          meets ws caps
        in
        let o = search_phase1 ~probe ~deadline ~on_probe:emit_probe index in
        emit_decision o;
        o
      in
      let replay i ~answer =
        search_phase1
          ~probe:(fun _ cap -> cap >= answer)
          ~deadline:Durable.Deadline.none
          ~on_probe:(fun _ _ _ _ -> ())
          i
      in
      let results, progress =
        Durable.Sweep.run ?pool ?journal ?obs ?deadline ?candidate_deadline
          ?cancel ?on_progress ~encode:encode_outcome
          ~decode:(fun i payload ->
            decode_outcome ~analytic:analytic_caps.(i)
              ~floor:(floor_of (Config.buffer_of_id cfg i))
              ~replay:(replay i) payload)
          ~verdict:(fun o -> Option.value o.skipped ~default:"ok")
          ~failed:(fun i e -> kept i ("error: " ^ Printexc.to_string e))
          ~n solve_buffer
      in
      let outcomes =
        (* an empty slot was abandoned to the global deadline or
           cancellation *)
        List.init n (fun i ->
            match results.(i) with Some o -> o | None -> kept i "not run")
      in
      (* Phase 2: per-buffer minima need not compose — verify the
         combination once, and on a miss fall back to a sequential
         pass that re-tightens each buffer against the accepted prefix
         (every probe then tests the true joint configuration, so the
         invariant "current capacities are feasible" holds throughout). *)
      let proposed = Array.copy analytic_caps in
      List.iter (fun o -> proposed.(o.buffer_id) <- o.tightened) outcomes;
      let changed = proposed <> analytic_caps in
      let ws = Sim.workspace plan in
      let joint_ok =
        (not changed)
        ||
        begin
          incr probes_extra;
          meets ws proposed
        end
      in
      let final_caps, outcomes, repaired =
        if joint_ok then (proposed, outcomes, false)
        else begin
          let current = Array.copy analytic_caps in
          let outcomes =
            List.map
              (fun o ->
                if o.skipped <> None then o
                else begin
                  let probe b cap =
                    let caps = Array.copy current in
                    caps.(Config.buffer_id b) <- cap;
                    incr probes_extra;
                    meets ws caps
                  in
                  (* The unprobed upper bound here must be the analytic
                     capacity: the invariant "[current] is feasible"
                     covers this buffer at its analytic value, whereas
                     the baseline high water was measured against the
                     unmodified analytic configuration and need not be
                     feasible jointly with the tightened prefix.  Both
                     high waters are still probed as seeds. *)
                  let b = Config.buffer_of_id cfg o.buffer_id in
                  let o' =
                    search_buffer ~probe
                      ~deadline:
                        (Durable.Sweep.candidate_deadline deadline
                           candidate_deadline)
                      ~on_probe:emit_probe ~hi:o.analytic
                      ~seeds:
                        [
                          Sim.(baseline.buffer_high_water_steady) b;
                          Sim.(baseline.buffer_high_water) b;
                        ]
                      o.buffer_id
                  in
                  (* count repair probes globally, not per buffer *)
                  refuted_extra := !refuted_extra + o'.refuted;
                  let o' = { o' with probes = o.probes; refuted = o.refuted } in
                  current.(o.buffer_id) <- o'.tightened;
                  o'
                end)
              outcomes
          in
          (* Belt and braces: every accepted capacity above was either
             probed against the true joint configuration or kept at its
             analytic value, so [current] is feasible by construction —
             but the output is announced as simulation-backed, so
             verify the joint configuration once more and fall back to
             the certified analytic capacities if the check disagrees. *)
          incr probes_extra;
          let repaired_ok = meets ws current in
          if repaired_ok then (current, outcomes, true)
          else
            ( Array.copy analytic_caps,
              List.map
                (fun o ->
                  if o.skipped <> None then o
                  else
                    {
                      o with
                      tightened = o.analytic;
                      skipped = Some "joint repair failed";
                    })
                outcomes,
              true )
        end
      in
      let total caps =
        List.fold_left (fun acc b -> acc + caps.(Config.buffer_id b)) 0 buffers
      in
      Ok
        {
          mapped = mapped_with final_caps;
          outcomes;
          analytic_containers = total analytic_caps;
          tightened_containers = total final_caps;
          probes =
            List.fold_left
              (fun acc (o : outcome) -> acc + o.probes - o.refuted)
              !probes_extra outcomes;
          refuted =
            List.fold_left
              (fun acc (o : outcome) -> acc + o.refuted)
              !refuted_extra outcomes;
          repaired;
          progress;
        }
    end
