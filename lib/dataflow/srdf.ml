type actor = int
type edge = int

type actor_info = { name : string; mutable duration : float }

type edge_info = { src : actor; dst : actor; mutable tokens : int }

type t = {
  mutable actor_infos : actor_info array;
  mutable nactors : int;
  mutable edge_infos : edge_info array;
  mutable nedges : int;
}

let initial_capacity = 8

let create () =
  {
    actor_infos = [||];
    nactors = 0;
    edge_infos = [||];
    nedges = 0;
  }

let grow_actors g =
  let cap = Array.length g.actor_infos in
  if g.nactors >= cap then begin
    let ncap = Int.max initial_capacity (2 * cap) in
    let fresh = Array.make ncap { name = ""; duration = 0.0 } in
    Array.blit g.actor_infos 0 fresh 0 g.nactors;
    g.actor_infos <- fresh
  end

let grow_edges g =
  let cap = Array.length g.edge_infos in
  if g.nedges >= cap then begin
    let ncap = Int.max initial_capacity (2 * cap) in
    let fresh = Array.make ncap { src = 0; dst = 0; tokens = 0 } in
    Array.blit g.edge_infos 0 fresh 0 g.nedges;
    g.edge_infos <- fresh
  end

let add_actor g ~name ~duration =
  if duration < 0.0 || not (Float.is_finite duration) then
    invalid_arg "Srdf.add_actor: duration must be finite and >= 0";
  grow_actors g;
  let v = g.nactors in
  g.actor_infos.(v) <- { name; duration };
  g.nactors <- v + 1;
  v

let check_actor g v =
  if v < 0 || v >= g.nactors then invalid_arg "Srdf: unknown actor"

let check_edge g e =
  if e < 0 || e >= g.nedges then invalid_arg "Srdf: unknown edge"

let add_edge g ~src ~dst ~tokens =
  check_actor g src;
  check_actor g dst;
  if tokens < 0 then invalid_arg "Srdf.add_edge: tokens must be >= 0";
  grow_edges g;
  let e = g.nedges in
  g.edge_infos.(e) <- { src; dst; tokens };
  g.nedges <- e + 1;
  e

let set_duration g v d =
  check_actor g v;
  if d < 0.0 || not (Float.is_finite d) then
    invalid_arg "Srdf.set_duration: duration must be finite and >= 0";
  g.actor_infos.(v).duration <- d

let num_actors g = g.nactors
let num_edges g = g.nedges
let actors g = List.init g.nactors Fun.id
let edges g = List.init g.nedges Fun.id

let actor_name g v =
  check_actor g v;
  g.actor_infos.(v).name

let duration g v =
  check_actor g v;
  g.actor_infos.(v).duration

let tokens g e =
  check_edge g e;
  g.edge_infos.(e).tokens

let edge_src g e =
  check_edge g e;
  g.edge_infos.(e).src

let edge_dst g e =
  check_edge g e;
  g.edge_infos.(e).dst

let out_edges g v =
  check_actor g v;
  List.filter (fun e -> g.edge_infos.(e).src = v) (edges g)

let in_edges g v =
  check_actor g v;
  List.filter (fun e -> g.edge_infos.(e).dst = v) (edges g)

let actor_id v = v
let edge_id e = e

let actor_of_id g i =
  check_actor g i;
  i

let find_actor g name =
  let rec loop v =
    if v >= g.nactors then raise Not_found
    else if g.actor_infos.(v).name = name then v
    else loop (v + 1)
  in
  loop 0

let reachable g ~reversed start =
  let seen = Array.make g.nactors false in
  let rec visit v =
    if not seen.(v) then begin
      seen.(v) <- true;
      for e = 0 to g.nedges - 1 do
        let { src; dst; _ } = g.edge_infos.(e) in
        let from, to_ = if reversed then (dst, src) else (src, dst) in
        if from = v then visit to_
      done
    end
  in
  visit start;
  seen

let is_strongly_connected g =
  g.nactors = 0
  || begin
       let fwd = reachable g ~reversed:false 0
       and bwd = reachable g ~reversed:true 0 in
       Array.for_all Fun.id fwd && Array.for_all Fun.id bwd
     end

let validate g =
  let problems = ref [] in
  for v = 0 to g.nactors - 1 do
    if g.actor_infos.(v).duration < 0.0 then
      problems :=
        Printf.sprintf "actor %s has negative duration" g.actor_infos.(v).name
        :: !problems
  done;
  for e = 0 to g.nedges - 1 do
    if g.edge_infos.(e).tokens < 0 then
      problems := Printf.sprintf "edge %d has negative tokens" e :: !problems
  done;
  List.rev !problems

let pp ppf g =
  Format.fprintf ppf "@[<v>SRDF graph: %d actors, %d queues@," g.nactors
    g.nedges;
  for v = 0 to g.nactors - 1 do
    Format.fprintf ppf "  actor %s: rho = %g@," g.actor_infos.(v).name
      g.actor_infos.(v).duration
  done;
  for e = 0 to g.nedges - 1 do
    let { src; dst; tokens } = g.edge_infos.(e) in
    Format.fprintf ppf "  queue %s -> %s: delta = %d@,"
      g.actor_infos.(src).name g.actor_infos.(dst).name tokens
  done;
  Format.fprintf ppf "@]"

let pp_dot ppf g =
  Format.fprintf ppf "digraph srdf {@.";
  Format.fprintf ppf "  rankdir=LR;@.";
  for v = 0 to g.nactors - 1 do
    Format.fprintf ppf "  n%d [label=\"%s\\nrho=%g\"];@." v
      g.actor_infos.(v).name g.actor_infos.(v).duration
  done;
  for e = 0 to g.nedges - 1 do
    let { src; dst; tokens } = g.edge_infos.(e) in
    if tokens = 0 then Format.fprintf ppf "  n%d -> n%d;@." src dst
    else
      Format.fprintf ppf "  n%d -> n%d [label=\"%d\"];@." src dst tokens
  done;
  Format.fprintf ppf "}@."
