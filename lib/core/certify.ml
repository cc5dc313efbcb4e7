module Config = Taskgraph.Config
module Rat = Exact.Rat
module Bigint = Exact.Bigint

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

(* ρ(v1) = ̺ − β and ρ(v2) = ̺·χ/β for one graph, every edge weight
   w(e) = ρ(src) − δ(e)·µ — the longest-path formulation of the PAS
   existence condition, mirrored from the float analysis but on exact
   rationals.  Returns the actor start times when a PAS exists.
   [beta] and [repl] are the exact budgets (by task id) and
   replenishment intervals; [node] receives each task's first node. *)
let certify_graph cfg (mapped : Config.mapped) ~beta ~repl ~node g =
  let graph = Config.graph_name cfg g in
  let tasks = Config.tasks cfg g and buffers = Config.buffers cfg g in
  let mu = Rat.of_float (Config.period cfg g) in
  let n = ref 0 in
  let names = Array.make (2 * List.length tasks) "" in
  let rho = Array.make (2 * List.length tasks) Rat.zero in
  List.iter
    (fun w ->
      let name = Config.task_name cfg w in
      let repl = repl (Config.task_proc cfg w) in
      let beta = beta.(Config.task_id w) in
      let chi = Rat.of_float (Config.wcet cfg w) in
      node.(Config.task_id w) <- !n;
      names.(!n) <- name ^ ".1";
      rho.(!n) <- Rat.sub repl beta;
      names.(!n + 1) <- name ^ ".2";
      rho.(!n + 1) <- Rat.div (Rat.mul repl chi) beta;
      n := !n + 2)
    tasks;
  let edges = ref [] in
  let add_edge src dst tokens =
    edges := (src, dst, Rat.sub rho.(src) (Rat.mul (Rat.of_int tokens) mu)) :: !edges
  in
  List.iter
    (fun w ->
      let v1 = node.(Config.task_id w) in
      add_edge v1 (v1 + 1) 0;
      add_edge (v1 + 1) (v1 + 1) 1)
    tasks;
  List.iter
    (fun b ->
      let iota = Config.initial_tokens cfg b in
      let gamma = mapped.Config.capacity b in
      if gamma < iota then
        (* the SRDF model is undefined; the float checker reports this
           as a throughput failure, and so do we *)
        refute
          (Violated
             (Violation.Throughput { graph; period = Config.period cfg g }));
      let src = node.(Config.task_id (Config.buffer_src cfg b)) in
      let dst = node.(Config.task_id (Config.buffer_dst cfg b)) in
      add_edge (src + 1) dst iota;
      add_edge (dst + 1) src (gamma - iota))
    buffers;
  let edges = Array.of_list (List.rev !edges) in
  match Exact.Bf.longest_path ~nodes:!n edges with
  | Exact.Bf.Positive_cycle cycle ->
      let actors =
        List.map
          (fun e ->
            let s, _, _ = edges.(e) in
            names.(s))
          cycle
      in
      let excess =
        List.fold_left
          (fun acc e ->
            let _, _, w = edges.(e) in
            Rat.add acc w)
          Rat.zero cycle
      in
      refute (Positive_cycle { graph; actors; excess })
  | Exact.Bf.Feasible d ->
      (* Latency of the earliest PAS against the graph's bound, for
         graphs with a unique source/sink pair (same convention as the
         float checker). *)
      (match Config.latency_bound cfg g with
      | None -> ()
      | Some bound ->
          (match Dataflow_model.chain_ends cfg g with
          | Some (src, snk) ->
              let v_src = node.(Config.task_id src) in
              let v_snk = node.(Config.task_id snk) + 1 in
              let latency =
                Rat.sub (Rat.add d.(v_snk) rho.(v_snk)) d.(v_src)
              in
              if Rat.compare latency (Rat.of_float bound) > 0 then
                refute
                  (Violated
                     (Violation.Latency
                        { graph; latency = Rat.to_float latency; bound }))
          | None -> ()));
      List.mapi (fun i di -> (names.(i), di)) (Array.to_list d)

let check_exn cfg (mapped : Config.mapped) =
  let tasks = Config.all_tasks cfg in
  let beta = Array.make (List.length tasks) Rat.zero in
  (* Converted on first use, so a non-finite interval fails at the same
     point, with the same message, as a conversion per use would. *)
  let repl =
    let procs = Config.processors cfg in
    let exact = Array.make (List.length procs) (lazy Rat.zero) in
    List.iter
      (fun p ->
        exact.(Config.proc_id p) <-
          lazy (Rat.of_float (Config.replenishment cfg p)))
      procs;
    fun p -> Lazy.force exact.(Config.proc_id p)
  in
  (* Budgets first: everything downstream divides by them. *)
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
    tasks;
  (* Throughput (and latency) of every graph, via exact Bellman-Ford. *)
  let node = Array.make (List.length tasks) 0 in
  let starts =
    List.concat_map
      (certify_graph cfg mapped ~beta ~repl ~node)
      (Config.graphs cfg)
  in
  (* Processor capacity, constraint (4) plus overhead — exact, with no
     epsilon indulgence. *)
  List.iter
    (fun p ->
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
        refute
          (Violated
             (Violation.Memory_capacity
                {
                  memory = Config.memory_name cfg m;
                  used;
                  capacity = Config.memory_capacity cfg m;
                })))
    (Config.memories cfg);
  List.iter
    (fun b ->
      match Config.max_capacity cfg b with
      | Some cap when mapped.Config.capacity b > cap ->
          refute
            (Violated
               (Violation.Buffer_bound
                  {
                    buffer = Config.buffer_name cfg b;
                    capacity = mapped.Config.capacity b;
                    bound = cap;
                  }))
      | Some _ | None -> ())
    (Config.all_buffers cfg);
  Certified { starts }

let check cfg mapped =
  match check_exn cfg mapped with
  | verdict -> verdict
  | exception Refute r -> Refuted r
  | exception Invalid_argument msg ->
      (* a non-finite configuration constant slipped past the explicit
         guards; refuse to certify rather than crash *)
      Refuted (Violated (Violation.Non_finite { what = msg; value = Float.nan }))

let certified = function Certified _ -> true | Refuted _ -> false

let summary = function
  | Certified w -> Printf.sprintf "ok (exact, %d start times)" (List.length w.starts)
  | Refuted (Violated v) -> "refuted: " ^ Violation.to_string v
  | Refuted (Positive_cycle { graph; actors; excess }) ->
      Printf.sprintf "refuted: task graph %s: positive cycle %s (excess %s)"
        graph
        (String.concat " -> " actors)
        (Rat.to_string excess)

let pp fmt t = Format.pp_print_string fmt (summary t)
