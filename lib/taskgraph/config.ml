type proc = int
type memory = int
type task = int
type buffer = int
type graph = int

type proc_info = { pname : string; replenishment : float; overhead : float }

type memory_info = { mname : string; capacity : int }

type graph_info = {
  gname : string;
  mutable period : float;
  latency_bound : float option;
}

type task_info = {
  tname : string;
  tgraph : graph;
  tproc : proc;
  wcet : float;
  mutable tweight : float;
}

type buffer_info = {
  bname : string;
  bgraph : graph;
  bsrc : task;
  bdst : task;
  bmemory : memory;
  container_size : int;
  initial_tokens : int;
  mutable bweight : float;
  mutable max_capacity : int option;
}

(* Growable array: amortised O(1) append and O(1) indexed read.  Slots
   past [len] are spare capacity holding stale values; they are never
   read. *)
module Vec = struct
  type 'a t = { mutable data : 'a array; mutable len : int }

  let create () = { data = [||]; len = 0 }
  let length v = v.len
  let get v i = v.data.(i)

  let push v x =
    let i = v.len in
    if i = Array.length v.data then begin
      let data = Array.make (Int.max 8 (2 * i)) x in
      Array.blit v.data 0 data 0 i;
      v.data <- data
    end;
    v.data.(i) <- x;
    v.len <- i + 1;
    i

  (* The copy owns a fresh array of exactly [len] slots, so a later
     [push] on either side never writes into the other's storage. *)
  let map f v = { data = Array.init v.len (fun i -> f v.data.(i)); len = v.len }

  let exists p v =
    let rec go i = i < v.len && (p v.data.(i) || go (i + 1)) in
    go 0

  let find_index p v =
    let rec go i =
      if i >= v.len then raise Not_found
      else if p v.data.(i) then i
      else go (i + 1)
    in
    go 0

  (* Indices [i] in ascending order whose element satisfies [p]. *)
  let indices p v =
    let rec go i acc =
      if i < 0 then acc else go (i - 1) (if p v.data.(i) then i :: acc else acc)
    in
    go (v.len - 1) []
end

type t = {
  granularity : float;
  procs : proc_info Vec.t;
  mems : memory_info Vec.t;
  graph_infos : graph_info Vec.t;
  task_infos : task_info Vec.t;
  buffer_infos : buffer_info Vec.t;
}

let create ~granularity () =
  if granularity <= 0.0 || not (Float.is_finite granularity) then
    invalid_arg "Config.create: granularity must be > 0";
  {
    granularity;
    procs = Vec.create ();
    mems = Vec.create ();
    graph_infos = Vec.create ();
    task_infos = Vec.create ();
    buffer_infos = Vec.create ();
  }

let info what v i =
  if i < 0 || i >= Vec.length v then invalid_arg ("Config: unknown " ^ what);
  Vec.get v i

let proc_info t p = info "processor" t.procs p
let memory_info t m = info "memory" t.mems m
let graph_info t g = info "task graph" t.graph_infos g
let task_info t w = info "task" t.task_infos w
let buffer_info t b = info "buffer" t.buffer_infos b

let name_exists t name =
  Vec.exists (fun (p : proc_info) -> p.pname = name) t.procs
  || Vec.exists (fun (m : memory_info) -> m.mname = name) t.mems
  || Vec.exists (fun (g : graph_info) -> g.gname = name) t.graph_infos
  || Vec.exists (fun (w : task_info) -> w.tname = name) t.task_infos
  || Vec.exists (fun (b : buffer_info) -> b.bname = name) t.buffer_infos

let check_fresh t name =
  if name_exists t name then
    invalid_arg (Printf.sprintf "Config: duplicate name %S" name)

let add_processor t ~name ~replenishment ?(overhead = 0.0) () =
  if replenishment <= 0.0 then
    invalid_arg "Config.add_processor: replenishment must be > 0";
  if overhead < 0.0 then
    invalid_arg "Config.add_processor: overhead must be >= 0";
  check_fresh t name;
  Vec.push t.procs { pname = name; replenishment; overhead }

let add_memory t ~name ~capacity =
  if capacity < 0 then invalid_arg "Config.add_memory: capacity must be >= 0";
  check_fresh t name;
  Vec.push t.mems { mname = name; capacity }

let add_graph t ~name ~period ?latency_bound () =
  if period <= 0.0 then invalid_arg "Config.add_graph: period must be > 0";
  (match latency_bound with
  | Some l when l <= 0.0 ->
    invalid_arg "Config.add_graph: latency bound must be > 0"
  | Some _ | None -> ());
  check_fresh t name;
  Vec.push t.graph_infos { gname = name; period; latency_bound }

let add_task t g ~name ~proc ~wcet ?(weight = 1.0) () =
  ignore (graph_info t g);
  ignore (proc_info t proc);
  if wcet <= 0.0 then invalid_arg "Config.add_task: wcet must be > 0";
  check_fresh t name;
  Vec.push t.task_infos
    { tname = name; tgraph = g; tproc = proc; wcet; tweight = weight }

let add_buffer t g ~name ~src ~dst ~memory ?(container_size = 1)
    ?(initial_tokens = 0) ?(weight = 1.0) ?max_capacity () =
  ignore (graph_info t g);
  ignore (memory_info t memory);
  let si = task_info t src and di = task_info t dst in
  if si.tgraph <> g || di.tgraph <> g then
    invalid_arg "Config.add_buffer: endpoint tasks must belong to the graph";
  if container_size <= 0 then
    invalid_arg "Config.add_buffer: container_size must be > 0";
  if initial_tokens < 0 then
    invalid_arg "Config.add_buffer: initial_tokens must be >= 0";
  (match max_capacity with
  | Some c when c < 1 -> invalid_arg "Config.add_buffer: max_capacity must be >= 1"
  | Some c when c < initial_tokens ->
    invalid_arg "Config.add_buffer: max_capacity below initial tokens"
  | Some _ | None -> ());
  check_fresh t name;
  Vec.push t.buffer_infos
    {
      bname = name;
      bgraph = g;
      bsrc = src;
      bdst = dst;
      bmemory = memory;
      container_size;
      initial_tokens;
      bweight = weight;
      max_capacity;
    }

let copy ?(period_scale = 1.0) t =
  if period_scale <= 0.0 || not (Float.is_finite period_scale) then
    invalid_arg "Config.copy: period_scale must be > 0";
  (* Every table gets a fresh array (so an [add_*] on either side never
     writes into the other's storage).  Proc and memory infos are
     immutable and may be shared; the rest carry mutable fields and are
     duplicated so that mutations on the copy never reach the original
     (and vice versa). *)
  {
    granularity = t.granularity;
    procs = Vec.map Fun.id t.procs;
    mems = Vec.map Fun.id t.mems;
    graph_infos =
      Vec.map
        (fun gi -> { gi with period = gi.period *. period_scale })
        t.graph_infos;
    task_infos = Vec.map (fun wi -> { wi with tname = wi.tname }) t.task_infos;
    buffer_infos =
      Vec.map (fun bi -> { bi with bname = bi.bname }) t.buffer_infos;
  }

let set_period t g mu =
  if mu <= 0.0 || not (Float.is_finite mu) then
    invalid_arg "Config.set_period: period must be > 0";
  (graph_info t g).period <- mu

let set_max_capacity t b cap =
  (match cap with
  | Some c when c < 1 ->
    invalid_arg "Config.set_max_capacity: capacity must be >= 1"
  | Some _ | None -> ());
  (buffer_info t b).max_capacity <- cap

let set_task_weight t w a = (task_info t w).tweight <- a
let set_buffer_weight t b v = (buffer_info t b).bweight <- v
let ids v = List.init (Vec.length v) Fun.id
let processors t = ids t.procs
let memories t = ids t.mems
let graphs t = ids t.graph_infos
let tasks t g = Vec.indices (fun (wi : task_info) -> wi.tgraph = g) t.task_infos
let buffers t g = Vec.indices (fun bi -> bi.bgraph = g) t.buffer_infos
let all_tasks t = ids t.task_infos
let all_buffers t = ids t.buffer_infos

let chain_ends t g =
  let tasks = tasks t g in
  let inputs = Array.make (Vec.length t.task_infos) 0 in
  let outputs = Array.make (Vec.length t.task_infos) 0 in
  List.iter
    (fun b ->
      let bi = Vec.get t.buffer_infos b in
      outputs.(bi.bsrc) <- outputs.(bi.bsrc) + 1;
      inputs.(bi.bdst) <- inputs.(bi.bdst) + 1)
    (buffers t g);
  match
    ( List.filter (fun w -> inputs.(w) = 0) tasks,
      List.filter (fun w -> outputs.(w) = 0) tasks )
  with
  | [ src ], [ snk ] -> Some (src, snk)
  | _ -> None
let granularity t = t.granularity
let proc_name t p = (proc_info t p).pname
let replenishment t p = (proc_info t p).replenishment
let overhead t p = (proc_info t p).overhead
let memory_name t m = (memory_info t m).mname
let memory_capacity t m = (memory_info t m).capacity
let graph_name t g = (graph_info t g).gname
let period t g = (graph_info t g).period
let latency_bound t g = (graph_info t g).latency_bound
let task_name t w = (task_info t w).tname
let task_proc t w = (task_info t w).tproc
let task_graph t w = (task_info t w).tgraph
let wcet t w = (task_info t w).wcet
let task_weight t w = (task_info t w).tweight
let buffer_name t b = (buffer_info t b).bname
let buffer_src t b = (buffer_info t b).bsrc
let buffer_dst t b = (buffer_info t b).bdst
let buffer_memory t b = (buffer_info t b).bmemory
let container_size t b = (buffer_info t b).container_size
let initial_tokens t b = (buffer_info t b).initial_tokens
let buffer_weight t b = (buffer_info t b).bweight
let max_capacity t b = (buffer_info t b).max_capacity

let tasks_on t p =
  Vec.indices (fun (wi : task_info) -> wi.tproc = p) t.task_infos

let buffers_in t m = Vec.indices (fun bi -> bi.bmemory = m) t.buffer_infos

let find_proc t name =
  Vec.find_index (fun (p : proc_info) -> p.pname = name) t.procs

let find_memory t name =
  Vec.find_index (fun (m : memory_info) -> m.mname = name) t.mems

let find_graph t name =
  Vec.find_index (fun (g : graph_info) -> g.gname = name) t.graph_infos

let find_task t name =
  Vec.find_index (fun (w : task_info) -> w.tname = name) t.task_infos

let find_buffer t name =
  Vec.find_index (fun (b : buffer_info) -> b.bname = name) t.buffer_infos

let task_id w = w
let buffer_id b = b

let task_of_id t i =
  ignore (task_info t i);
  i

let buffer_of_id t i =
  ignore (buffer_info t i);
  i
let proc_id p = p
let memory_id m = m
let graph_id g = g

let validate t =
  let problems = ref [] in
  let add fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  List.iter
    (fun p ->
      let pi = proc_info t p in
      let min_budgets =
        List.length (tasks_on t p) |> float_of_int |> ( *. ) t.granularity
      in
      if pi.overhead +. min_budgets > pi.replenishment then
        add
          "processor %s: overhead plus one granule per task already exceeds \
           the replenishment interval"
          pi.pname)
    (processors t);
  List.iter
    (fun m ->
      let mi = memory_info t m in
      let min_fill =
        List.fold_left
          (fun acc b ->
            acc
            + (container_size t b * Int.max 1 (initial_tokens t b)))
          0 (buffers_in t m)
      in
      if min_fill > mi.capacity then
        add "memory %s: minimal buffer footprint %d exceeds capacity %d"
          mi.mname min_fill mi.capacity)
    (memories t);
  List.iter
    (fun w ->
      let wi = task_info t w in
      let pi = proc_info t wi.tproc in
      (* Even with the whole interval as budget the actor modelling the
         task has firing duration ≥ χ, so µ < χ is hopeless. *)
      let mu = (graph_info t wi.tgraph).period in
      if wi.wcet > mu then
        add "task %s: wcet %g exceeds the graph period %g" wi.tname wi.wcet mu;
      if wi.wcet > pi.replenishment then
        add "task %s: wcet %g exceeds the replenishment interval %g of %s"
          wi.tname wi.wcet pi.replenishment pi.pname)
    (all_tasks t);
  List.rev !problems

type mapped = { budget : task -> float; capacity : buffer -> int }

let pp ppf t =
  Format.fprintf ppf "@[<v>granularity %g@," t.granularity;
  List.iter
    (fun p ->
      let pi = proc_info t p in
      Format.fprintf ppf "processor %s replenishment %g overhead %g@," pi.pname
        pi.replenishment pi.overhead)
    (processors t);
  List.iter
    (fun m ->
      let mi = memory_info t m in
      Format.fprintf ppf "memory %s capacity %d@," mi.mname mi.capacity)
    (memories t);
  List.iter
    (fun g ->
      let gi = graph_info t g in
      Format.fprintf ppf "taskgraph %s period %g%s@," gi.gname gi.period
        (match gi.latency_bound with
        | None -> ""
        | Some l -> Printf.sprintf " latency %g" l);
      List.iter
        (fun w ->
          let wi = task_info t w in
          Format.fprintf ppf "  task %s proc %s wcet %g weight %g@," wi.tname
            (proc_name t wi.tproc) wi.wcet wi.tweight)
        (tasks t g);
      List.iter
        (fun b ->
          let bi = buffer_info t b in
          Format.fprintf ppf
            "  buffer %s from %s to %s memory %s container %d initial %d \
             weight %g%s@,"
            bi.bname (task_name t bi.bsrc) (task_name t bi.bdst)
            (memory_name t bi.bmemory) bi.container_size bi.initial_tokens
            bi.bweight
            (match bi.max_capacity with
            | None -> ""
            | Some c -> Printf.sprintf " max %d" c))
        (buffers t g))
    (graphs t);
  Format.fprintf ppf "@]"

let pp_mapped t ppf m =
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun w ->
      Format.fprintf ppf "budget %s = %g@," (task_name t w) (m.budget w))
    (all_tasks t);
  List.iter
    (fun b ->
      Format.fprintf ppf "capacity %s = %d containers@," (buffer_name t b)
        (m.capacity b))
    (all_buffers t);
  Format.fprintf ppf "@]"

let pp_dot ppf t =
  Format.fprintf ppf "digraph taskgraphs {@.";
  Format.fprintf ppf "  rankdir=LR;@.";
  Format.fprintf ppf "  node [shape=box];@.";
  List.iter
    (fun g ->
      let gi = graph_info t g in
      Format.fprintf ppf "  subgraph cluster_%d {@." g;
      Format.fprintf ppf "    label=\"%s (mu=%g)\";@." gi.gname gi.period;
      List.iter
        (fun w ->
          let wi = task_info t w in
          Format.fprintf ppf
            "    w%d [label=\"%s\\nchi=%g on %s\"];@." w wi.tname wi.wcet
            (proc_name t wi.tproc))
        (tasks t g);
      Format.fprintf ppf "  }@.")
    (graphs t);
  List.iter
    (fun b ->
      let bi = buffer_info t b in
      let cap =
        match bi.max_capacity with
        | None -> ""
        | Some c -> Printf.sprintf " cap<=%d" c
      in
      Format.fprintf ppf
        "  w%d -> w%d [label=\"%s zeta=%d iota=%d%s\"];@." bi.bsrc bi.bdst
        bi.bname bi.container_size bi.initial_tokens cap)
    (all_buffers t);
  Format.fprintf ppf "}@."
