type mcr_result = Mcr of float | Deadlocked | Acyclic

let token_fun g e = float_of_int (Srdf.tokens g e)

(* Cycle detection ignoring weights, over the queues [keep] selects. *)
let has_cycle ~keep g =
  let n = Srdf.num_actors g in
  let adj = Array.make n [] in
  List.iter
    (fun e ->
      if keep e then begin
        let s = Srdf.actor_id (Srdf.edge_src g e) in
        adj.(s) <- Srdf.actor_id (Srdf.edge_dst g e) :: adj.(s)
      end)
    (Srdf.edges g);
  let state = Array.make n 0 (* 0 unvisited, 1 on stack, 2 done *) in
  let rec visit v =
    if state.(v) = 1 then true
    else if state.(v) = 2 then false
    else begin
      state.(v) <- 1;
      let found = List.exists visit adj.(v) in
      state.(v) <- 2;
      found
    end
  in
  List.exists (fun v -> visit (Srdf.actor_id v)) (Srdf.actors g)

(* A zero-token cycle makes every period infeasible when it has positive
   duration (and even zero-duration zero-token cycles deadlock an actual
   execution, so we flag them all).  Detected by restricting the graph
   to zero-token edges. *)
let classify ?tokens g =
  let tokens = match tokens with Some f -> f | None -> token_fun g in
  if not (has_cycle ~keep:(fun _ -> true) g) then `Acyclic
  else if has_cycle ~keep:(fun e -> tokens e <= 0.0) g then `Deadlocked
  else `Cyclic
