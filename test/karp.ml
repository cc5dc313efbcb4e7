(* Karp's maximum-cycle-mean algorithm and the delay-element reduction
   from cycle ratio to cycle mean: the tests' independent oracle for
   Howard's policy iteration and the binary search. *)

module Srdf = Dataflow.Srdf
module Analysis = Dataflow.Analysis

let neg_inf = neg_infinity

(* Strongly connected components of a generic edge list (iterative
   Tarjan, local to this module since [Dataflow.Scc] is typed to SRDF
   graphs). *)
let generic_sccs ~num_vertices ~edges =
  let adj = Array.make num_vertices [] in
  List.iter (fun (s, d, _) -> adj.(s) <- d :: adj.(s)) edges;
  let index = Array.make num_vertices (-1) in
  let lowlink = Array.make num_vertices 0 in
  let on_stack = Array.make num_vertices false in
  let stack = ref [] in
  let comp = Array.make num_vertices (-1) in
  let ncomp = ref 0 in
  let counter = ref 0 in
  for root = 0 to num_vertices - 1 do
    if index.(root) < 0 then begin
      let frames = ref [ (root, ref adj.(root)) ] in
      index.(root) <- !counter;
      lowlink.(root) <- !counter;
      incr counter;
      stack := root :: !stack;
      on_stack.(root) <- true;
      while !frames <> [] do
        match !frames with
        | [] -> ()
        | (v, rest) :: tail -> begin
          match !rest with
          | w :: more ->
            rest := more;
            if index.(w) < 0 then begin
              index.(w) <- !counter;
              lowlink.(w) <- !counter;
              incr counter;
              stack := w :: !stack;
              on_stack.(w) <- true;
              frames := (w, ref adj.(w)) :: !frames
            end
            else if on_stack.(w) then
              lowlink.(v) <- Int.min lowlink.(v) index.(w)
          | [] ->
            frames := tail;
            (match tail with
            | (parent, _) :: _ ->
              lowlink.(parent) <- Int.min lowlink.(parent) lowlink.(v)
            | [] -> ());
            if lowlink.(v) = index.(v) then begin
              let stop = ref false in
              while not !stop do
                match !stack with
                | [] -> stop := true
                | w :: t ->
                  stack := t;
                  on_stack.(w) <- false;
                  comp.(w) <- !ncomp;
                  if w = v then stop := true
              done;
              incr ncomp
            end
        end
      done
    end
  done;
  (comp, !ncomp)

let max_cycle_mean ~num_vertices ~edges =
  List.iter
    (fun (s, d, _) ->
      if s < 0 || s >= num_vertices || d < 0 || d >= num_vertices then
        invalid_arg "Karp.max_cycle_mean: endpoint out of range")
    edges;
  if num_vertices = 0 then None
  else begin
    let comp, ncomp = generic_sccs ~num_vertices ~edges in
    let best = ref None in
    for c = 0 to ncomp - 1 do
      (* Local indexing of the component. *)
      let members =
        List.filter (fun v -> comp.(v) = c) (List.init num_vertices Fun.id)
      in
      let n = List.length members in
      let local = Hashtbl.create n in
      List.iteri (fun i v -> Hashtbl.replace local v i) members;
      let ledges =
        List.filter_map
          (fun (s, d, w) ->
            if comp.(s) = c && comp.(d) = c then
              Some (Hashtbl.find local s, Hashtbl.find local d, w)
            else None)
          edges
      in
      if ledges <> [] then begin
        (* Karp table: d.(k).(v) = max weight of a k-edge walk from the
           root to v inside the component. *)
        let d = Array.make_matrix (n + 1) n neg_inf in
        d.(0).(0) <- 0.0;
        for k = 1 to n do
          List.iter
            (fun (s, t, w) ->
              if d.(k - 1).(s) > neg_inf then
                d.(k).(t) <- Float.max d.(k).(t) (d.(k - 1).(s) +. w))
            ledges
        done;
        for v = 0 to n - 1 do
          if d.(n).(v) > neg_inf then begin
            let worst = ref infinity in
            for k = 0 to n - 1 do
              if d.(k).(v) > neg_inf then
                worst :=
                  Float.min !worst
                    ((d.(n).(v) -. d.(k).(v)) /. float_of_int (n - k))
            done;
            if Float.is_finite !worst then
              best :=
                Some
                  (match !best with
                  | None -> !worst
                  | Some b -> Float.max b !worst)
          end
        done
      end
    done;
    !best
  end

(* Longest path weights over the zero-token subgraph (a DAG once
   deadlock has been excluded), from [source] to every vertex; weights
   are the constraint-graph edge weights w(e) = ρ(src(e)). *)
let zero_longest_paths g source =
  let n = Srdf.num_actors g in
  let adj = Array.make n [] in
  List.iter
    (fun e ->
      if Srdf.tokens g e = 0 then begin
        let s = Srdf.actor_id (Srdf.edge_src g e) in
        let d = Srdf.actor_id (Srdf.edge_dst g e) in
        adj.(s) <- (d, Srdf.duration g (Srdf.edge_src g e)) :: adj.(s)
      end)
    (Srdf.edges g);
  let dist = Array.make n neg_inf in
  dist.(source) <- 0.0;
  (* Bellman-style relaxation; the zero-token subgraph is acyclic, so n
     passes settle it. *)
  let changed = ref true in
  let pass = ref 0 in
  while !changed && !pass <= n do
    changed := false;
    incr pass;
    for v = 0 to n - 1 do
      if dist.(v) > neg_inf then
        List.iter
          (fun (d, w) ->
            if dist.(v) +. w > dist.(d) then begin
              dist.(d) <- dist.(v) +. w;
              changed := true
            end)
          adj.(v)
    done
  done;
  dist

let max_cycle_ratio g =
  match Analysis.classify g with
  | `Acyclic -> Analysis.Acyclic
  | `Deadlocked -> Analysis.Deadlocked
  | `Cyclic ->
    (* Delay elements: token position j of edge e.  Chains carry zero
       weight; the connecting edge from the last position of e to the
       first position of f carries the longest zero-token path from
       dst(e) to src(f) plus w(f) = ρ(src(f)). *)
    let token_edges =
      List.filter (fun e -> Srdf.tokens g e > 0) (Srdf.edges g)
    in
    let first = Hashtbl.create 16 and last = Hashtbl.create 16 in
    let count = ref 0 in
    List.iter
      (fun e ->
        let t = Srdf.tokens g e in
        Hashtbl.replace first (Srdf.edge_id e) !count;
        Hashtbl.replace last (Srdf.edge_id e) (!count + t - 1);
        count := !count + t)
      token_edges;
    let h_edges = ref [] in
    (* Intra-edge chains. *)
    List.iter
      (fun e ->
        let f = Hashtbl.find first (Srdf.edge_id e)
        and l = Hashtbl.find last (Srdf.edge_id e) in
        for p = f to l - 1 do
          h_edges := (p, p + 1, 0.0) :: !h_edges
        done)
      token_edges;
    (* Connections through the zero-token subgraph. *)
    List.iter
      (fun e ->
        let source = Srdf.actor_id (Srdf.edge_dst g e) in
        let dist = zero_longest_paths g source in
        List.iter
          (fun f ->
            let target = Srdf.actor_id (Srdf.edge_src g f) in
            if dist.(target) > neg_inf then
              h_edges :=
                ( Hashtbl.find last (Srdf.edge_id e),
                  Hashtbl.find first (Srdf.edge_id f),
                  dist.(target) +. Srdf.duration g (Srdf.edge_src g f) )
                :: !h_edges)
          token_edges)
      token_edges;
    (match max_cycle_mean ~num_vertices:!count ~edges:!h_edges with
    | Some r -> Analysis.Mcr r
    | None ->
      (* `Cyclic guaranteed a cycle with tokens, so this is unreachable
         in practice; report a zero ratio defensively. *)
      Analysis.Mcr 0.0)
