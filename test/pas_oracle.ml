(* Float oracles for Reiter's PAS condition, kept next to [karp.ml]
   as independent opinions on what the library decides exactly (see
   pas_oracle.mli).  Tolerances are relative, as in any float check. *)

open Dataflow

let token_fun = Analysis.token_fun

(* Bellman–Ford longest-path on the constraint graph with edge weights
   w(eij) = ρ(vi) − δ(eij)·period.  All potentials start at 0 (a virtual
   source into every actor), so feasibility of the difference system is
   exactly the absence of a positive-weight cycle. *)
let longest_path_potentials ?tokens g ~period =
  if period <= 0.0 then invalid_arg "Pas_oracle: period must be > 0";
  let tokens = match tokens with Some f -> f | None -> token_fun g in
  let n = Srdf.num_actors g in
  let edge_list =
    List.map
      (fun e ->
        let src = Srdf.actor_id (Srdf.edge_src g e)
        and dst = Srdf.actor_id (Srdf.edge_dst g e) in
        let w = Srdf.duration g (Srdf.edge_src g e) -. (tokens e *. period) in
        (e, src, dst, w))
      (Srdf.edges g)
  in
  let scale =
    List.fold_left (fun acc (_, _, _, w) -> Float.max acc (Float.abs w)) 1.0
      edge_list
  in
  let eps = 1e-9 *. scale in
  let d = Array.make n 0.0 in
  let changed = ref true in
  let rounds = ref 0 in
  while !changed && !rounds <= n do
    changed := false;
    incr rounds;
    List.iter
      (fun (_, src, dst, w) ->
        if d.(src) +. w > d.(dst) +. eps then begin
          d.(dst) <- d.(src) +. w;
          changed := true
        end)
      edge_list
  done;
  if !changed then None (* positive cycle: relaxation did not settle *)
  else Some d

let pas_exists ?tokens g ~period =
  match longest_path_potentials ?tokens g ~period with
  | Some _ -> true
  | None -> false

let pas_start_times ?tokens g ~period = longest_path_potentials ?tokens g ~period

let max_cycle_ratio ?tokens ?(eps = 1e-12) g =
  let tokens = match tokens with Some f -> f | None -> token_fun g in
  match Analysis.classify ~tokens g with
  | `Acyclic -> Analysis.Acyclic
  | `Deadlocked -> Analysis.Deadlocked
  | `Cyclic ->
    (* Any cycle ratio is at most Σρ / min positive token count ≥ 1
       token, and at least 0; bisect feasibility of the PAS test. *)
    let total_duration =
      List.fold_left
        (fun acc v -> acc +. Srdf.duration g v)
        0.0 (Srdf.actors g)
    in
    let hi0 = Float.max total_duration 1e-9 in
    (* A period equal to hi0 is always feasible (every cycle has ≥ 1
       token, hence ratio ≤ total duration); tighten from there. *)
    let rec bisect lo hi iters =
      if iters = 0 || hi -. lo <= eps *. Float.max 1.0 hi then hi
      else begin
        let mid = 0.5 *. (lo +. hi) in
        if mid <= 0.0 then hi
        else if pas_exists ~tokens g ~period:mid then bisect lo mid (iters - 1)
        else bisect mid hi (iters - 1)
      end
    in
    Analysis.Mcr (bisect 0.0 hi0 200)

type self_timed = { starts : float array array; measured_period : float }

let self_timed ?(iterations = 100) g =
  let n = Srdf.num_actors g in
  if n = 0 then Ok { starts = [||]; measured_period = 0.0 }
  else begin
    if Analysis.classify g = `Deadlocked then
      Error "zero-token cycle: the graph deadlocks"
    else begin
      let edge_list =
        List.map
          (fun e ->
            ( Srdf.actor_id (Srdf.edge_src g e),
              Srdf.actor_id (Srdf.edge_dst g e),
              Srdf.tokens g e,
              Srdf.duration g (Srdf.edge_src g e) ))
          (Srdf.edges g)
      in
      let starts = Array.make_matrix iterations n 0.0 in
      (* Firing k of the consumer waits for firing (k − δ) of the
         producer to finish.  Zero-token edges create intra-iteration
         dependencies, resolved by fixpoint passes (at most n are
         needed since the zero-token subgraph is acyclic here). *)
      for k = 0 to iterations - 1 do
        if k > 0 then Array.blit starts.(k - 1) 0 starts.(k) 0 n;
        let pass = ref 0 and changed = ref true in
        while !changed do
          changed := false;
          incr pass;
          if !pass > n + 1 then failwith "self_timed: fixpoint diverged";
          List.iter
            (fun (src, dst, toks, dur) ->
              let dep = k - toks in
              if dep >= 0 then begin
                let ready = starts.(dep).(src) +. dur in
                if ready > starts.(k).(dst) +. 1e-12 then begin
                  starts.(k).(dst) <- ready;
                  changed := true
                end
              end)
            edge_list
        done
      done;
      let measured_period =
        if iterations < 4 then 0.0
        else begin
          let k1 = iterations / 2 and k2 = iterations - 1 in
          let window = float_of_int (k2 - k1) in
          let worst = ref 0.0 in
          for v = 0 to n - 1 do
            let p = (starts.(k2).(v) -. starts.(k1).(v)) /. window in
            if p > !worst then worst := p
          done;
          !worst
        end
      in
      Ok { starts; measured_period }
    end
  end

let check_schedule ?tokens g ~period s =
  let tokens = match tokens with Some f -> f | None -> token_fun g in
  if Array.length s <> Srdf.num_actors g then
    invalid_arg "Pas_oracle.check_schedule: wrong schedule length";
  List.filter
    (fun e ->
      let i = Srdf.actor_id (Srdf.edge_src g e)
      and j = Srdf.actor_id (Srdf.edge_dst g e) in
      let lhs = s.(j)
      and rhs =
        s.(i) +. Srdf.duration g (Srdf.edge_src g e) -. (tokens e *. period)
      in
      lhs < rhs -. 1e-9 *. Float.max 1.0 (Float.abs rhs))
    (Srdf.edges g)
