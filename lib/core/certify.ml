module Config = Taskgraph.Config
module Rat = Exact.Rat

type witness = { starts : (string * Rat.t) list }

type refutation =
  | Violated of Violation.t
  | Positive_cycle of {
      graph : string;
      actors : string list;
      excess : Rat.t;
    }

type t = Certified of witness | Refuted of refutation

exception Refute of refutation

let refute r = raise (Refute r)

(* One graph's SRDF constraint system on exact rationals.  The k-th
   task of the graph owns nodes 2k ("task.1", ρ = ̺ − β) and 2k + 1
   ("task.2", ρ = ̺·χ/β) and edges 2k (the zero-token transition) and
   2k + 1 (the one-token self-loop); with T tasks, the j-th buffer owns
   edges 2T + 2j (data, ι tokens) and 2T + 2j + 1 (space, γ − ι).  An
   edge is (src, dst, δ); its weight at period µ is ρ(src) − δ·µ, the
   longest-path form of the PAS existence condition.  [beta] and
   [repl] are the exact budgets (by task id) and replenishment
   intervals; [node] receives each task's first node, by task id. *)
type model = {
  graph : string;
  mu : Rat.t;
  tasks : Config.task array;
  buffers : Config.buffer array;
  node : int array;
  names : string array;
  rho : Rat.t array;
  edges : (int * int * int) array;
}

(* The durations of task [w]'s actors [v1] and [v1 + 1] under the exact
   budget [beta]. *)
let set_budget cfg rho ~v1 ~repl w beta =
  rho.(v1) <- Rat.sub repl beta;
  rho.(v1 + 1) <-
    Rat.div (Rat.mul repl (Rat.of_float (Config.wcet cfg w))) beta

let model cfg (mapped : Config.mapped) ~beta ~repl ~node g =
  let graph = Config.graph_name cfg g in
  let tasks = Array.of_list (Config.tasks cfg g) in
  let buffers = Array.of_list (Config.buffers cfg g) in
  let mu = Rat.of_float (Config.period cfg g) in
  let nt = Array.length tasks in
  let names = Array.make (2 * nt) "" in
  let rho = Array.make (2 * nt) Rat.zero in
  let edges = Array.make ((2 * nt) + (2 * Array.length buffers)) (0, 0, 0) in
  Array.iteri
    (fun k w ->
      let name = Config.task_name cfg w in
      let v1 = 2 * k in
      node.(Config.task_id w) <- v1;
      names.(v1) <- name ^ ".1";
      names.(v1 + 1) <- name ^ ".2";
      set_budget cfg rho ~v1 ~repl:(repl (Config.task_proc cfg w)) w
        beta.(Config.task_id w);
      edges.(v1) <- (v1, v1 + 1, 0);
      edges.(v1 + 1) <- (v1 + 1, v1 + 1, 1))
    tasks;
  Array.iteri
    (fun j b ->
      let iota = Config.initial_tokens cfg b in
      let gamma = mapped.Config.capacity b in
      if gamma < iota then
        (* the SRDF model is undefined: no schedule at any period *)
        refute
          (Violated
             (Violation.Throughput { graph; period = Config.period cfg g }));
      let src = node.(Config.task_id (Config.buffer_src cfg b)) in
      let dst = node.(Config.task_id (Config.buffer_dst cfg b)) in
      edges.((2 * nt) + (2 * j)) <- (src + 1, dst, iota);
      edges.((2 * nt) + (2 * j) + 1) <- (dst + 1, src, gamma - iota))
    buffers;
  { graph; mu; tasks; buffers; node; names; rho; edges }

let weights m period =
  Array.map
    (fun (src, dst, tokens) ->
      (src, dst, Rat.sub m.rho.(src) (Rat.mul (Rat.of_int tokens) period)))
    m.edges

(* The exact weight at period µ of [cycle] (edge indices). *)
let excess m cycle =
  List.fold_left
    (fun acc k ->
      let s, _, tokens = m.edges.(k) in
      Rat.add acc (Rat.sub m.rho.(s) (Rat.mul (Rat.of_int tokens) m.mu)))
    Rat.zero cycle

(* Exact Bellman–Ford at the graph's period: the earliest PAS as the
   node potentials, or the refuting cycle with its exact excess. *)
let schedule m =
  match Exact.Bf.longest_path ~nodes:(Array.length m.rho) (weights m m.mu) with
  | Exact.Bf.Feasible d -> d
  | Exact.Bf.Positive_cycle cycle ->
      let actors =
        List.map
          (fun k ->
            let s, _, _ = m.edges.(k) in
            m.names.(s))
          cycle
      in
      refute
        (Positive_cycle { graph = m.graph; actors; excess = excess m cycle })

(* Converted on first use, so a non-finite interval fails at the same
   point, with the same message, as a conversion per use would. *)
let exact_replenishment cfg =
  let procs = Config.processors cfg in
  let exact = Array.make (List.length procs) (lazy Rat.zero) in
  List.iter
    (fun p ->
      exact.(Config.proc_id p) <-
        lazy (Rat.of_float (Config.replenishment cfg p)))
    procs;
  fun p -> Lazy.force exact.(Config.proc_id p)

(* The exact budgets of [tasks] into [beta], by task id; everything
   downstream divides by them. *)
let exact_budgets cfg (mapped : Config.mapped) ~repl ~beta tasks =
  List.iter
    (fun w ->
      let b = mapped.Config.budget w in
      let name = Config.task_name cfg w in
      if not (Float.is_finite b) then
        refute
          (Violated
             (Violation.Non_finite
                { what = "budget of task " ^ name; value = b }));
      let p = Config.task_proc cfg w in
      let exact = Rat.of_float b in
      if Rat.sign exact <= 0 || Rat.compare exact (repl p) > 0 then
        refute
          (Violated
             (Violation.Budget_range
                {
                  task = name;
                  budget = b;
                  replenishment = Config.replenishment cfg p;
                }));
      beta.(Config.task_id w) <- exact)
    tasks

(* The end-to-end latency of graph [g]'s schedule with start times
   [d]: from the activation of the source's waiting actor to the
   completion of the sink's processing actor.  [None] without a unique
   source/sink pair. *)
let end_to_end cfg m d g =
  Option.map
    (fun (src, snk) ->
      let v_snk = m.node.(Config.task_id snk) + 1 in
      Rat.sub (Rat.add d.(v_snk) m.rho.(v_snk)) d.(m.node.(Config.task_id src)))
    (Config.chain_ends cfg g)

(* Throughput of one graph, then the latency of its earliest PAS
   against its bound. *)
let certify_graph cfg mapped ~beta ~repl ~node g =
  let m = model cfg mapped ~beta ~repl ~node g in
  let d = schedule m in
  (match Config.latency_bound cfg g with
  | None -> ()
  | Some bound -> (
      match end_to_end cfg m d g with
      | Some latency when Rat.compare latency (Rat.of_float bound) > 0 ->
          refute
            (Violated
               (Violation.Latency
                  { graph = m.graph; latency = Rat.to_float latency; bound }))
      | Some _ | None -> ()));
  List.mapi (fun i di -> (m.names.(i), di)) (Array.to_list d)

(* A non-finite configuration constant that slipped past the explicit
   guards refutes rather than crashes. *)
let guard f =
  match f () with
  | v -> Ok v
  | exception Refute r -> Error r
  | exception Invalid_argument msg ->
      Error (Violated (Violation.Non_finite { what = msg; value = Float.nan }))

(* Every violated constraint, in the order {!check} reports them, and
   the earliest PAS of the graphs that have one.  Each constraint is
   decided on its own; a budget outside (0, ̺] ends the survey, since
   every later constraint divides by the budgets. *)
let survey cfg (mapped : Config.mapped) =
  let found = ref [] in
  let attempt f =
    match guard f with
    | Ok v -> Some v
    | Error r ->
        found := r :: !found;
        None
  in
  let tasks = Config.all_tasks cfg in
  let repl = exact_replenishment cfg in
  let beta = Array.make (List.length tasks) Rat.zero in
  exact_budgets cfg mapped ~repl ~beta tasks;
  (* Throughput (and latency) of every graph, via exact Bellman-Ford. *)
  let node = Array.make (List.length tasks) 0 in
  let starts =
    List.concat_map
      (fun g ->
        Option.value ~default:[]
          (attempt (fun () -> certify_graph cfg mapped ~beta ~repl ~node g)))
      (Config.graphs cfg)
  in
  (* Processor capacity, constraint (4) plus overhead — exact, with no
     epsilon indulgence. *)
  List.iter
    (fun p ->
      ignore @@ attempt
      @@ fun () ->
      let used =
        List.fold_left
          (fun acc w -> Rat.add acc beta.(Config.task_id w))
          (Rat.of_float (Config.overhead cfg p))
          (Config.tasks_on cfg p)
      in
      if Rat.compare used (repl p) > 0 then
        refute
          (Violated
             (Violation.Processor_capacity
                {
                  proc = Config.proc_name cfg p;
                  used = Rat.to_float used;
                  capacity = Config.replenishment cfg p;
                })))
    (Config.processors cfg);
  (* Memory pre-reservation: integers, so already exact. *)
  List.iter
    (fun m ->
      let used =
        List.fold_left
          (fun acc b ->
            acc + (mapped.Config.capacity b * Config.container_size cfg b))
          0 (Config.buffers_in cfg m)
      in
      if used > Config.memory_capacity cfg m then
        found :=
          Violated
            (Violation.Memory_capacity
               {
                 memory = Config.memory_name cfg m;
                 used;
                 capacity = Config.memory_capacity cfg m;
               })
          :: !found)
    (Config.memories cfg);
  List.iter
    (fun b ->
      match Config.max_capacity cfg b with
      | Some cap when mapped.Config.capacity b > cap ->
          found :=
            Violated
              (Violation.Buffer_bound
                 {
                   buffer = Config.buffer_name cfg b;
                   capacity = mapped.Config.capacity b;
                   bound = cap;
                 })
            :: !found
      | Some _ | None -> ())
    (Config.all_buffers cfg);
  (starts, List.rev !found)

let refutations cfg mapped =
  match guard (fun () -> survey cfg mapped) with
  | Ok (_, found) -> found
  | Error r -> [ r ]

let check cfg mapped =
  match guard (fun () -> survey cfg mapped) with
  | Ok (starts, []) -> Certified { starts }
  | Ok (_, r :: _) | Error r -> Refuted r

let certified = function Certified _ -> true | Refuted _ -> false

let violation cfg = function
  | Violated v -> v
  | Positive_cycle { graph; _ } ->
      Violation.Throughput
        { graph; period = Config.period cfg (Config.find_graph cfg graph) }

let violations cfg mapped = List.map (violation cfg) (refutations cfg mapped)

(* One graph's model on its own: budgets of its tasks only. *)
let graph_model cfg (mapped : Config.mapped) g =
  let repl = exact_replenishment cfg in
  let n = List.length (Config.all_tasks cfg) in
  let beta = Array.make n Rat.zero in
  exact_budgets cfg mapped ~repl ~beta (Config.tasks cfg g);
  let node = Array.make n 0 in
  model cfg mapped ~beta ~repl ~node g

let latency cfg mapped g =
  match
    guard (fun () ->
        let m = graph_model cfg mapped g in
        end_to_end cfg m (schedule m) g)
  with
  | Ok l -> l
  | Error _ -> None

type critical = {
  ratio : Rat.t;
  slack : Rat.t;
  tasks : Config.task list;
  buffers : Config.buffer list;
}

(* The float rendering of a model: actor i and queue k are the model's
   node i and edge k. *)
let float_graph m =
  let srdf = Dataflow.Srdf.create () in
  let actors =
    Array.mapi
      (fun i name ->
        Dataflow.Srdf.add_actor srdf ~name ~duration:(Rat.to_float m.rho.(i)))
      m.names
  in
  Array.iter
    (fun (s, d, tokens) ->
      ignore
        (Dataflow.Srdf.add_edge srdf ~src:actors.(s) ~dst:actors.(d) ~tokens))
    m.edges;
  srdf

let srdf cfg g mapped =
  match guard (fun () -> graph_model cfg mapped g) with
  | Ok m -> Ok (float_graph m)
  | Error r -> Error (violation cfg r)

(* Constraint (1) on model [m] and its float rendering [srdf]: [None]
   when a PAS with period µ exists, else a positive cycle (edge indices
   of [m]).  Howard's cycle, when its exact ratio exceeds µ, is a
   positive cycle at µ already: the Bellman–Ford would refute too, only
   after all its rounds. *)
let positive_cycle m srdf =
  match Dataflow.Howard.proposal ~rho:m.rho srdf with
  | Some (r, cycle) when Rat.compare r m.mu > 0 ->
      Some (List.map Dataflow.Srdf.edge_id cycle)
  | Some _ | None -> (
      match
        Exact.Bf.longest_path ~nodes:(Array.length m.rho) (weights m m.mu)
      with
      | Exact.Bf.Feasible _ -> None
      | Exact.Bf.Positive_cycle cycle -> Some cycle)

let schedulable cfg g mapped =
  match guard (fun () -> graph_model cfg mapped g) with
  | Error _ -> false
  | Ok m -> positive_cycle m (float_graph m) = None

let schedulable_budget cfg g mapped w =
  if Config.task_graph cfg w <> g then
    invalid_arg "Certify.schedulable_budget: task of another graph";
  (* The model is built with the full budget ̺ for [w], valid whatever
     [mapped] gives it. *)
  let full = Config.replenishment cfg (Config.task_proc cfg w) in
  let mapped =
    {
      mapped with
      Config.budget =
        (fun w' ->
          if Config.task_id w' = Config.task_id w then full
          else mapped.Config.budget w');
    }
  in
  match guard (fun () -> graph_model cfg mapped g) with
  | Error _ -> fun _ -> false
  | Ok m ->
      (* One model, its two durations of [w] rewritten per probe.  The
         cycle that refuted the last probe is tried first: bisecting
         the budget, it usually refutes the next one too. *)
      let srdf = float_graph m in
      let last = ref [] in
      let v1 = m.node.(Config.task_id w) in
      let repl = Rat.of_float full in
      fun budget ->
        Float.is_finite budget
        &&
        let beta = Rat.of_float budget in
        Rat.sign beta > 0
        && Rat.compare beta repl <= 0
        &&
        (set_budget cfg m.rho ~v1 ~repl w beta;
         List.iter
           (fun v ->
             Dataflow.Srdf.set_duration srdf
               (Dataflow.Srdf.actor_of_id srdf v)
               (Rat.to_float m.rho.(v)))
           [ v1; v1 + 1 ];
         Rat.sign (excess m !last) <= 0
         &&
         match positive_cycle m srdf with
         | None -> true
         | Some cycle ->
             last := cycle;
             false)

let max_cycle_ratio cfg g mapped =
  match guard (fun () -> graph_model cfg mapped g) with
  | Error _ -> None
  | Ok m -> (
      (* The float graph only steers Howard's proposal; the ratio comes
         from the exact durations. *)
      match Dataflow.Howard.exact ~rho:m.rho (float_graph m) with
      | `Deadlocked -> None
      | `Acyclic ->
          Some { ratio = Rat.zero; slack = m.mu; tasks = []; buffers = [] }
      | `Mcr (ratio, cycle) ->
          let nt = Array.length m.tasks in
          let on_task = Array.make nt false in
          let on_buffer = Array.make (Array.length m.buffers) false in
          List.iter
            (fun e ->
              let k = Dataflow.Srdf.edge_id e in
              let s, _, _ = m.edges.(k) in
              on_task.(s / 2) <- true;
              if k >= 2 * nt then on_buffer.((k - (2 * nt)) / 2) <- true)
            cycle;
          let pick on all =
            List.filteri (fun i _ -> on.(i)) (Array.to_list all)
          in
          Some
            {
              ratio;
              slack = Rat.sub m.mu ratio;
              tasks = pick on_task m.tasks;
              buffers = pick on_buffer m.buffers;
            })

let pp_critical cfg ppf c =
  Format.fprintf ppf "critical cycle at ratio %s: tasks {%s}, buffers {%s}"
    (Rat.to_decimal ~round:`Up ~digits:4 c.ratio)
    (String.concat ", " (List.map (Config.task_name cfg) c.tasks))
    (String.concat ", " (List.map (Config.buffer_name cfg) c.buffers))

let summary = function
  | Certified w -> Printf.sprintf "ok (exact, %d start times)" (List.length w.starts)
  | Refuted (Violated v) -> "refuted: " ^ Violation.to_string v
  | Refuted (Positive_cycle { graph; actors; excess }) ->
      Printf.sprintf "refuted: task graph %s: positive cycle %s (excess %s)"
        graph
        (String.concat " -> " actors)
        (Rat.to_string excess)

let pp fmt t = Format.pp_print_string fmt (summary t)
