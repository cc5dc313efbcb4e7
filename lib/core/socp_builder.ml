module Config = Taskgraph.Config
module Model = Conic.Model

type t = {
  model : Model.model;
  budget_var : Config.task -> Model.var;
  lambda_var : Config.task -> Model.var;
  space_var : Config.buffer -> Model.var;
  start_var : Config.task -> [ `A1 | `A2 ] -> Model.var;
}

let build cfg =
  let m = Model.create () in
  let budget = Hashtbl.create 16
  and lambda = Hashtbl.create 16
  and space = Hashtbl.create 16
  and start1 = Hashtbl.create 16
  and start2 = Hashtbl.create 16 in
  let g = Config.granularity cfg in
  (* Variables. *)
  List.iter
    (fun w ->
      let n = Config.task_name cfg w in
      let id = Config.task_id w in
      Hashtbl.replace budget id (Model.variable m ("beta'." ^ n));
      Hashtbl.replace lambda id (Model.variable m ("lambda." ^ n));
      Hashtbl.replace start1 id (Model.variable m ("s." ^ n ^ ".1"));
      Hashtbl.replace start2 id (Model.variable m ("s." ^ n ^ ".2")))
    (Config.all_tasks cfg);
  List.iter
    (fun b ->
      Hashtbl.replace space (Config.buffer_id b)
        (Model.variable m ("delta'." ^ Config.buffer_name cfg b)))
    (Config.all_buffers cfg);
  let bvar w = Hashtbl.find budget (Config.task_id w) in
  let lvar w = Hashtbl.find lambda (Config.task_id w) in
  let dvar b = Hashtbl.find space (Config.buffer_id b) in
  let svar1 w = Hashtbl.find start1 (Config.task_id w) in
  let svar2 w = Hashtbl.find start2 (Config.task_id w) in
  (* Firing duration of the processing actor v2 of task w, as the affine
     expression ̺·χ·λ(w) (Constraint (7)'s left-hand side). *)
  let rho2 w =
    let p = Config.task_proc cfg w in
    Model.term (Config.replenishment cfg p *. Config.wcet cfg w) (lvar w)
  in
  List.iter
    (fun w ->
      let p = Config.task_proc cfg w in
      let repl = Config.replenishment cfg p in
      let mu = Config.period cfg (Config.task_graph cfg w) in
      (* Positivity of the surrogates. *)
      Model.add_ge0 m (Model.var (bvar w));
      Model.add_ge0 m (Model.var (lvar w));
      (* (6): the E1 queue v1 → v2, no tokens:
         s(v2) ≥ s(v1) + (̺ − β′). *)
      Model.add_ge m
        (Model.var (svar2 w))
        (Model.affine ~const:repl [ (1.0, svar1 w); (-1.0, bvar w) ]);
      (* (7) on the self-loop v2 → v2 (one token): ̺·χ·λ ≤ µ. *)
      Model.add_le m (rho2 w) (Model.const mu);
      (* (8): λ·β′ ≥ 1 as a second-order cone. *)
      Model.add_hyperbolic m ~a:(Model.var (lvar w)) ~b:(Model.var (bvar w))
        ~bound:1.0)
    (Config.all_tasks cfg);
  List.iter
    (fun b ->
      let wa = Config.buffer_src cfg b and wb = Config.buffer_dst cfg b in
      let mu = Config.period cfg (Config.task_graph cfg wa) in
      let iota = float_of_int (Config.initial_tokens cfg b) in
      Model.add_ge0 m (Model.var (dvar b));
      (* (7) on the data queue a2 → b1 (ι tokens):
         s(b1) ≥ s(a2) + ̺·χ·λ(a) − ι·µ. *)
      Model.add_ge m
        (Model.var (svar1 wb))
        (Model.add
           (Model.affine ~const:(-.iota *. mu) [ (1.0, svar2 wa) ])
           (rho2 wa));
      (* (7) on the space queue b2 → a1 (δ′ tokens):
         s(a1) ≥ s(b2) + ̺·χ·λ(b) − δ′·µ. *)
      Model.add_ge m
        (Model.var (svar1 wa))
        (Model.add
           (Model.affine [ (1.0, svar2 wb); (-.mu, dvar b) ])
           (rho2 wb));
      (* Optional capacity bound: ι + δ′ ≤ cap.  A bound equal to the
         initial tokens pins δ′ = 0 exactly; expressing that by
         substitution keeps the cone program's interior non-empty. *)
      match Config.max_capacity cfg b with
      | None -> ()
      | Some cap when cap = Config.initial_tokens cfg b ->
        Model.fix m (dvar b) 0.0
      | Some cap ->
        Model.add_le m
          (Model.var (dvar b))
          (Model.const (float_of_int cap -. iota)))
    (Config.all_buffers cfg);
  (* (9): per-processor budget capacity with rounding reserve. *)
  List.iter
    (fun p ->
      let tasks = Config.tasks_on cfg p in
      if tasks <> [] then begin
        let lhs =
          Model.sum (List.map (fun w -> Model.var (bvar w)) tasks)
        in
        let reserve = float_of_int (List.length tasks) *. g in
        Model.add_le m lhs
          (Model.const
             (Config.replenishment cfg p -. Config.overhead cfg p -. reserve))
      end)
    (Config.processors cfg);
  (* (10): per-memory capacity with one reserved container per buffer. *)
  List.iter
    (fun mem ->
      let bufs = Config.buffers_in cfg mem in
      if bufs <> [] then begin
        let lhs =
          Model.sum
            (List.map
               (fun b ->
                 let zeta = float_of_int (Config.container_size cfg b) in
                 let iota = float_of_int (Config.initial_tokens cfg b) in
                 Model.affine ~const:(zeta *. (iota +. 1.0))
                   [ (zeta, dvar b) ])
               bufs)
        in
        Model.add_le m lhs
          (Model.const (float_of_int (Config.memory_capacity cfg mem)))
      end)
    (Config.memories cfg);
  (* Latency bounds (extension): for a graph with a bound L and a
     unique source/sink pair, the end-to-end latency of the periodic
     schedule is s(sink.v2) + ̺·χ·λ(sink) − s(src.v1) — affine in the
     variables, so it joins the program as one more row. *)
  List.iter
    (fun gr ->
      match Config.latency_bound cfg gr with
      | None -> ()
      | Some bound -> (
        match Config.chain_ends cfg gr with
        | Some (src, snk) ->
          Model.add_le m
            (Model.add
               (Model.affine [ (1.0, svar2 snk); (-1.0, svar1 src) ])
               (rho2 snk))
            (Model.const bound)
        | None ->
          invalid_arg
            (Printf.sprintf
               "Socp_builder: graph %s has a latency bound but no unique \
                source/sink pair"
               (Config.graph_name cfg gr))))
    (Config.graphs cfg);
  (* Objective (5). *)
  let objective =
    Model.sum
      (List.map
         (fun w -> Model.term (Config.task_weight cfg w) (bvar w))
         (Config.all_tasks cfg)
      @ List.map
          (fun b ->
            Model.term
              (Config.buffer_weight cfg b
              *. float_of_int (Config.container_size cfg b))
              (dvar b))
          (Config.all_buffers cfg))
  in
  Model.minimize m objective;
  {
    model = m;
    budget_var = bvar;
    lambda_var = lvar;
    space_var = dvar;
    start_var = (fun w -> function `A1 -> svar1 w | `A2 -> svar2 w);
  }

type continuous = {
  budget : Config.task -> float;
  lambda : Config.task -> float;
  space : Config.buffer -> float;
  capacity : Config.buffer -> float;
  objective : float;
}

let extract cfg t (result : Model.result) =
  {
    budget = (fun w -> result.Model.value (t.budget_var w));
    lambda = (fun w -> result.Model.value (t.lambda_var w));
    space = (fun b -> result.Model.value (t.space_var b));
    capacity =
      (fun b ->
        float_of_int (Config.initial_tokens cfg b)
        +. result.Model.value (t.space_var b));
    objective = result.Model.objective;
  }
