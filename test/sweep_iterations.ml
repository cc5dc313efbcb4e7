(* Cone iterations of a traced sweep, read from the [Solve_end] events
   that the solve counters of an [Obs.Ctx] fold (its "solves: N (M
   iterations)" line): one event per cone solve, recovery rungs
   included. *)

let capacity = 1_000_000

(* A context over a ring large enough to keep a whole small sweep. *)
let context () =
  let sink = Obs.Sink.ring ~capacity in
  (Obs.Ctx.make ~sink (), sink)

let events sink =
  let evs = Obs.Sink.events sink in
  if List.length evs >= capacity then
    failwith "Sweep_iterations: the trace ring overflowed";
  evs

let total sink =
  List.fold_left
    (fun acc { Obs.Trace.event; _ } ->
      match event with
      | Obs.Trace.Solve_end { iterations; _ } -> acc + iterations
      | _ -> acc)
    0 (events sink)

(* [(index, iterations)] per candidate, in completion order.  Only for
   a sweep run without a pool: there each candidate's solves fall
   between the previous candidate's [Candidate] event and its own. *)
let per_candidate sink =
  let acc, rev =
    List.fold_left
      (fun (acc, rev) { Obs.Trace.event; _ } ->
        match event with
        | Obs.Trace.Solve_end { iterations; _ } -> (acc + iterations, rev)
        | Obs.Trace.Candidate { index; _ } -> (0, (index, acc) :: rev)
        | _ -> (acc, rev))
      (0, []) (events sink)
  in
  if acc <> 0 then failwith "Sweep_iterations: solves after the last candidate";
  List.rev rev
