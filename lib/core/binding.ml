module Config = Taskgraph.Config

type strategy = Exhaustive of int | Greedy_utilization | First_fit

type outcome = {
  config : Config.t;
  assignment : (string * string) list;
  result : Mapping.result;
  explored : int;
}

(* What the one placement search knows about a kind of item (tasks or
   buffers) and the bins it is placed in (processors or memories). *)
type ('item, 'bin) kind = {
  items : Config.t -> 'item list;
  bins : Config.t -> 'bin list;
  set : Config.t -> 'item -> 'bin -> unit;
  item_name : Config.t -> 'item -> string;
  bin_name : Config.t -> 'bin -> string;
  need : Config.t -> 'item -> 'bin -> float;  (** capacity taken in a bin *)
  room : Config.t -> 'bin -> float;  (** capacity of an empty bin *)
  weight : Config.t -> 'item -> float;  (** greedy places heaviest first *)
  no_bins : string;
  unplaceable : string;
  heuristic_infeasible : string;
  exhausted : string;
}

(* A copy of [cfg] with item number [i] (declaration order) moved to
   [bin_of i item]; every handle of [cfg] stays valid on it. *)
let rebind_with kind cfg bin_of =
  let fresh = Config.copy cfg in
  List.iteri (fun i x -> kind.set fresh x (bin_of i x)) (kind.items cfg);
  fresh

(* Reserved capacity of a task on any processor: its minimal budget
   (̺·χ/µ rounded to the granularity) plus the granule Constraint (9)
   pre-reserves, computed against the candidate processor. *)
let reservation cfg w p =
  let mu = Config.period cfg (Config.task_graph cfg w) in
  let need = Config.replenishment cfg p *. Config.wcet cfg w /. mu in
  Rounding.round_budget ~granularity:(Config.granularity cfg) need
  +. Config.granularity cfg

let tasks =
  {
    items = Config.all_tasks;
    bins = Config.processors;
    set = Config.set_task_proc;
    item_name = Config.task_name;
    bin_name = Config.proc_name;
    need = reservation;
    room = (fun cfg p -> Config.replenishment cfg p -. Config.overhead cfg p);
    weight =
      (fun cfg w ->
        Config.wcet cfg w /. Config.period cfg (Config.task_graph cfg w));
    no_bins = "no processors";
    unplaceable = "no processor can host some task's minimal budget";
    heuristic_infeasible = "the heuristic binding is infeasible";
    exhausted = "no feasible binding found within the search limit";
  }

(* Minimal footprint of a buffer in any memory: one container beyond the
   initially filled ones (the reserve Constraint (10) keeps for the
   rounding). *)
let footprint cfg b =
  float_of_int (Config.container_size cfg b * (Config.initial_tokens cfg b + 1))

let buffers =
  {
    items = Config.all_buffers;
    bins = Config.memories;
    set = Config.set_buffer_memory;
    item_name = Config.buffer_name;
    bin_name = Config.memory_name;
    need = (fun cfg b _ -> footprint cfg b);
    room = (fun cfg m -> float_of_int (Config.memory_capacity cfg m));
    weight = footprint;
    no_bins = "no memories";
    unplaceable = "no memory can host some buffer's minimal footprint";
    heuristic_infeasible = "the heuristic memory placement is infeasible";
    exhausted = "no feasible memory placement within the search limit";
  }

(* The heuristics place items one by one, heaviest first (greedy, a
   stable sort) or in declaration order (first fit), each into the
   first bin with the most slack left after it (greedy) or the first
   bin it fits (first fit).  The bin index of every item, or None when
   some item fits nowhere. *)
let place kind cfg ~greedy items bins =
  let slack = Array.map (kind.room cfg) bins in
  let choice = Array.make (Array.length items) 0 in
  let order = List.init (Array.length items) Fun.id in
  let heavier i j =
    compare (kind.weight cfg items.(j)) (kind.weight cfg items.(i))
  in
  let fits i =
    let best = ref (-1) and best_left = ref neg_infinity in
    Array.iteri
      (fun j bin ->
        let left = slack.(j) -. kind.need cfg items.(i) bin in
        if left >= 0.0 && (if greedy then left > !best_left else !best < 0)
        then begin
          best := j;
          best_left := left
        end)
      bins;
    if !best < 0 then false
    else begin
      slack.(!best) <- !best_left;
      choice.(i) <- !best;
      true
    end
  in
  let order = if greedy then List.stable_sort heavier order else order in
  if List.for_all fits order then Some choice else None

(* The one search behind [optimize] and [optimize_memories]: every
   candidate is solved on its own copy and kept only when certified. *)
let search kind ~strategy cfg =
  let items = Array.of_list (kind.items cfg) in
  let bins = Array.of_list (kind.bins cfg) in
  let solve choice =
    let config = rebind_with kind cfg (fun i _ -> bins.(choice.(i))) in
    match Mapping.solve config with
    | Ok result when Certify.certified result.Mapping.certificate ->
      let assignment =
        List.init (Array.length items) (fun i ->
            ( kind.item_name cfg items.(i),
              kind.bin_name cfg bins.(choice.(i)) ))
      in
      Some { config; assignment; result; explored = 1 }
    | Ok _ | Error _ -> None
  in
  if Array.length bins = 0 then Error kind.no_bins
  else
    match strategy with
    | Greedy_utilization | First_fit -> begin
      let greedy = strategy = Greedy_utilization in
      match place kind cfg ~greedy items bins with
      | None -> Error kind.unplaceable
      | Some choice ->
        Option.to_result ~none:kind.heuristic_infeasible (solve choice)
    end
    | Exhaustive limit when limit < 1 ->
      Error "exhaustive search limit must be >= 1"
    | Exhaustive limit ->
      (* Enumerate choices as base-k counters over the items, stopping
         at the limit. *)
      let n = Array.length items and k = Array.length bins in
      let choice = Array.make n 0 in
      let rec bump i =
        if i >= n then false
        else if choice.(i) + 1 < k then begin
          choice.(i) <- choice.(i) + 1;
          true
        end
        else begin
          choice.(i) <- 0;
          bump (i + 1)
        end
      in
      (* A candidate replaces the best only when better by over 1e-9. *)
      let improves o = function
        | None -> true
        | Some b ->
          o.result.Mapping.rounded_objective
          < b.result.Mapping.rounded_objective -. 1e-9
      in
      let rec go explored best =
        let best =
          match solve choice with
          | Some o when improves o best -> Some o
          | Some _ | None -> best
        in
        if explored < limit && bump 0 then go (explored + 1) best
        else (explored, best)
      in
      match go 1 None with
      | _, None -> Error kind.exhausted
      | explored, Some o -> Ok { o with explored }

let rebind cfg ~assign = rebind_with tasks cfg (fun _ w -> assign w)
let optimize ?(strategy = Greedy_utilization) cfg = search tasks ~strategy cfg
let rebind_memories cfg ~assign = rebind_with buffers cfg (fun _ b -> assign b)

let optimize_memories ?(strategy = Greedy_utilization) cfg =
  search buffers ~strategy cfg
