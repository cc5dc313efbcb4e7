(* Howard's policy iteration for the maximum cycle ratio, run per
   strongly connected component.

   Within a component, a policy picks one outgoing edge per actor; the
   policy graph is functional, so every actor reaches exactly one
   cycle.  Evaluation assigns each actor the ratio η of its cycle and a
   relative value v; improvement first moves actors toward cycles with
   larger η, then (among equal η) toward larger reduced value
   w(e) − η·t(e) + v(dst).  At a fixed point, max η over the component
   is its maximum cycle ratio (Cochet-Terrasson et al. 1998; Dasdan's
   experimental study 2004). *)

let run ?tokens ?(eps = 1e-9) g =
  let tokens = match tokens with Some f -> f | None -> Analysis.token_fun g in
  match Analysis.classify ~tokens g with
  | `Acyclic -> `Acyclic
  | `Deadlocked -> `Deadlocked
  | `Cyclic ->
    let scc = Scc.compute g in
    let best = ref 0.0 in
    let best_cycle = ref [] in
    for c = 0 to Scc.count scc - 1 do
      if not (Scc.is_trivial scc g c) then begin
        (* Local dense indexing of the component. *)
        let members =
          List.filter
            (fun v -> Scc.component_of scc (Srdf.actor_of_id g v) = c)
            (List.map Srdf.actor_id (Srdf.actors g))
        in
        let n = List.length members in
        let local = Hashtbl.create n in
        List.iteri (fun i v -> Hashtbl.replace local v i) members;
        (* Outgoing internal edges per local node: (dst, w, t). *)
        let out = Array.make n [] in
        List.iter
          (fun e ->
            let u = Hashtbl.find local (Srdf.actor_id (Srdf.edge_src g e)) in
            let x = Hashtbl.find local (Srdf.actor_id (Srdf.edge_dst g e)) in
            let w = Srdf.duration g (Srdf.edge_src g e) in
            out.(u) <- (x, w, tokens e) :: out.(u))
          (Scc.internal_edges scc g c);
        (* Initial policy: the heaviest outgoing edge. *)
        let policy = Array.make n (-1, 0.0, 0.0) in
        for u = 0 to n - 1 do
          match out.(u) with
          | [] -> assert false (* non-trivial SCC: every node has out-edges *)
          | first :: rest ->
            policy.(u) <-
              List.fold_left
                (fun ((_, bw, _) as acc) ((_, w, _) as cand) ->
                  if w > bw then cand else acc)
                first rest
        done;
        let eta = Array.make n 0.0 and value = Array.make n 0.0 in
        let evaluate () =
          (* Find, for every node, the policy cycle it reaches; compute
             η on cycles and propagate v backwards through the trees. *)
          let state = Array.make n 0 (* 0 fresh, 1 on path, 2 done *) in
          for start = 0 to n - 1 do
            if state.(start) = 0 then begin
              (* Walk the functional graph recording the path. *)
              let path = ref [] in
              let u = ref start in
              while state.(!u) = 0 do
                state.(!u) <- 1;
                path := !u :: !path;
                let nxt, _, _ = policy.(!u) in
                u := nxt
              done;
              if state.(!u) = 1 then begin
                (* Found a fresh cycle through !u: collect it. *)
                let cycle = ref [] and sum_w = ref 0.0 and sum_t = ref 0.0 in
                let v = ref !u in
                let continue_ = ref true in
                while !continue_ do
                  let nxt, w, t = policy.(!v) in
                  cycle := !v :: !cycle;
                  sum_w := !sum_w +. w;
                  sum_t := !sum_t +. t;
                  v := nxt;
                  if !v = !u then continue_ := false
                done;
                let lambda = !sum_w /. !sum_t in
                (* Values around the cycle: root value 0, then
                   backwards v(prev) = w − λ·t + v(node). *)
                let cycle_nodes = !cycle (* reversed forward order *) in
                (* cycle_nodes = [prev(u); ...; u] following the walk
                   backwards; assign iteratively. *)
                List.iter
                  (fun node ->
                    eta.(node) <- lambda;
                    state.(node) <- 2)
                  cycle_nodes;
                value.(!u) <- 0.0;
                (* Walk the cycle forward once more to fix values:
                   v(x) where π(x) = y gives v(x) = rew(x) + v(y);
                   processing nodes in reverse forward order makes each
                   v available when needed (v(u) = 0 anchors it). *)
                List.iter
                  (fun node ->
                    if node <> !u then begin
                      let nxt, w, t = policy.(node) in
                      value.(node) <- w -. (lambda *. t) +. value.(nxt)
                    end)
                  cycle_nodes
              end;
              (* Nodes on the path but not on the cycle: propagate from
                 their successor (which is done by now when walking the
                 path in reverse). *)
              List.iter
                (fun node ->
                  if state.(node) <> 2 then begin
                    let nxt, w, t = policy.(node) in
                    eta.(node) <- eta.(nxt);
                    value.(node) <- w -. (eta.(nxt) *. t) +. value.(nxt);
                    state.(node) <- 2
                  end)
                !path
            end
          done
        in
        let improve () =
          let changed = ref false in
          (* Stage 1: move toward cycles with a strictly larger η. *)
          for u = 0 to n - 1 do
            List.iter
              (fun ((x, _, _) as e) ->
                if eta.(x) > eta.(u) +. eps then begin
                  policy.(u) <- e;
                  changed := true
                end)
              out.(u)
          done;
          if not !changed then
            (* Stage 2: among equal η, improve the reduced value. *)
            for u = 0 to n - 1 do
              List.iter
                (fun ((x, w, t) as e) ->
                  if
                    Float.abs (eta.(x) -. eta.(u)) <= eps
                    && w -. (eta.(u) *. t) +. value.(x)
                       > value.(u) +. eps *. Float.max 1.0 (Float.abs value.(u))
                  then begin
                    policy.(u) <- e;
                    changed := true
                  end)
                out.(u)
            done;
          !changed
        in
        let max_iter = 50 * (n + 1) in
        let rec loop i =
          evaluate ();
          if improve () && i < max_iter then loop (i + 1)
        in
        loop 0;
        (* The critical cycle is the policy cycle reached from the node
           with the largest η. *)
        let members_arr = Array.of_list members in
        let best_u = ref 0 in
        Array.iteri (fun u lam -> if lam > eta.(!best_u) then best_u := u) eta;
        if eta.(!best_u) > !best then begin
          best := eta.(!best_u);
          (* Walk the policy from best_u until a node repeats, then cut
             the prefix before the repeated node. *)
          let seen = Hashtbl.create n in
          let rec walk u order =
            if Hashtbl.mem seen u then (u, List.rev order)
            else begin
              Hashtbl.replace seen u ();
              let nxt, _, _ = policy.(u) in
              walk nxt (u :: order)
            end
          in
          let entry, order = walk !best_u [] in
          let rec drop = function
            | [] -> []
            | u :: rest -> if u = entry then u :: rest else drop rest
          in
          best_cycle :=
            List.map
              (fun u -> Srdf.actor_of_id g members_arr.(u))
              (drop order)
        end
      end
    done;
    `Mcr (!best, !best_cycle)

let max_cycle_ratio ?tokens ?eps g =
  match run ?tokens ?eps g with
  | `Acyclic -> Analysis.Acyclic
  | `Deadlocked -> Analysis.Deadlocked
  | `Mcr (r, _) -> Analysis.Mcr r

let critical_cycle ?tokens ?eps g =
  match run ?tokens ?eps g with
  | `Acyclic | `Deadlocked -> None
  | `Mcr (r, cycle) -> Some (r, cycle)

module Rat = Exact.Rat

let exact_durations ?rho g =
  let n = Srdf.num_actors g in
  match rho with
  | Some rho ->
    if Array.length rho <> n then
      invalid_arg "Howard.exact: one duration per actor expected";
    rho
  | None ->
    Array.init n (fun i ->
        Rat.of_float (Srdf.duration g (Srdf.actor_of_id g i)))

let cycle_ratio g rho cycle =
  let sum f = List.fold_left (fun acc e -> Rat.add acc (f e)) Rat.zero cycle in
  Rat.div
    (sum (fun e -> rho.(Srdf.actor_id (Srdf.edge_src g e))))
    (sum (fun e -> Rat.of_int (Srdf.tokens g e)))

(* Howard names the critical cycle by its actors; between two
   consecutive ones take the queue with the fewest tokens, the
   heaviest.  Empty when Howard finds no cycle of positive ratio.
   [run] classifies the graph once for both callers. *)
let proposed_cycle g =
  match run g with
  | (`Acyclic | `Deadlocked) as c -> c
  | `Mcr (_, []) -> `Cycle []
  | `Mcr (_, (first :: _ as actors)) ->
    let rec link = function
      | [] -> []
      | u :: rest ->
        let v = match rest with v :: _ -> v | [] -> first in
        let heavier best e =
          match best with
          | Some b when Srdf.tokens g b <= Srdf.tokens g e -> best
          | Some _ | None -> if Srdf.edge_dst g e = v then Some e else best
        in
        Option.get (List.fold_left heavier None (Srdf.out_edges g u))
        :: link rest
    in
    `Cycle (link actors)

let proposal ?rho g =
  let rho = exact_durations ?rho g in
  match proposed_cycle g with
  | `Acyclic | `Deadlocked | `Cycle [] -> None
  | `Cycle cycle -> Some (cycle_ratio g rho cycle, cycle)

(* The exact MCR: Howard's critical cycle is only a proposal.  Its
   exact ratio r is a lower bound on the MCR (it is a real cycle), and
   the exact Bellman–Ford at period r either finds no positive cycle,
   which proves r is the maximum, or returns a cycle C of positive
   weight Σρ − r·Σδ > 0, whose ratio is therefore strictly larger than
   r.  Ratios strictly increase over finitely many cycles, so the loop
   ends; no cycle carries zero tokens once [classify] says [`Cyclic]. *)
let exact ?rho g =
  let rho = exact_durations ?rho g in
  match proposed_cycle g with
  | (`Acyclic | `Deadlocked) as c -> c
  | `Cycle proposed ->
    let edges = Array.of_list (Srdf.edges g) in
    let weights r =
      Array.map
        (fun e ->
          let s = Srdf.actor_id (Srdf.edge_src g e) in
          ( s,
            Srdf.actor_id (Srdf.edge_dst g e),
            Rat.sub rho.(s) (Rat.mul (Rat.of_int (Srdf.tokens g e)) r) ))
        edges
    in
    let rec confirm cycle =
      let r = if cycle = [] then Rat.zero else cycle_ratio g rho cycle in
      match Exact.Bf.longest_path ~nodes:(Array.length rho) (weights r) with
      | Exact.Bf.Feasible _ -> `Mcr (r, cycle)
      | Exact.Bf.Positive_cycle [] ->
        failwith "Howard.exact: positive cycle without a witness"
      | Exact.Bf.Positive_cycle ks -> confirm (List.map (fun k -> edges.(k)) ks)
    in
    confirm proposed
