module Config = Taskgraph.Config
module Csdf = Dataflow.Csdf

type rtask = int
type rchannel = int

type task_info = {
  tname : string;
  tgraph : string;
  tproc : Config.proc;
  wcet : float;
  tweight : float;
}

type channel_info = {
  cname : string;
  cgraph : string;
  csrc : rtask;
  production : int;
  cdst : rtask;
  consumption : int;
  initial : int;
  container_size : int;
  cweight : float;
}

(* Tasks and channels live in id-indexed growable arrays (slots
   [0 .. n-1] are live), their names in one table each. *)
type t = {
  config_seed : Config.t; (* holds processors and memories *)
  mutable graph_periods : (string * float) list; (* reversed *)
  mutable task_infos : task_info array;
  mutable ntasks : int;
  mutable channel_infos : channel_info array;
  mutable nchannels : int;
  task_names : (string, unit) Hashtbl.t;
  channel_names : (string, unit) Hashtbl.t;
  mutable default_memory : Config.memory option;
}

let create ~granularity () =
  {
    config_seed = Config.create ~granularity ();
    graph_periods = [];
    task_infos = [||];
    ntasks = 0;
    channel_infos = [||];
    nchannels = 0;
    task_names = Hashtbl.create 16;
    channel_names = Hashtbl.create 16;
    default_memory = None;
  }

(* [push a n x] stores [x] at slot [n] of [a], doubling [a] when full. *)
let push a n x =
  let a =
    if n < Array.length a then a
    else begin
      let fresh = Array.make (Int.max 8 (2 * n)) x in
      Array.blit a 0 fresh 0 n;
      fresh
    end
  in
  a.(n) <- x;
  a

(* Claims [name] in [names], or fails with [msg]. *)
let claim_name names name msg =
  if Hashtbl.mem names name then invalid_arg msg;
  Hashtbl.add names name ()

let add_processor t ~name ~replenishment ?overhead () =
  Config.add_processor t.config_seed ~name ~replenishment ?overhead ()

let add_memory t ~name ~capacity =
  let m = Config.add_memory t.config_seed ~name ~capacity in
  if t.default_memory = None then t.default_memory <- Some m;
  m

let add_graph t ~name ~period =
  if List.mem_assoc name t.graph_periods then
    invalid_arg "Multirate.add_graph: duplicate graph name";
  if period <= 0.0 then invalid_arg "Multirate.add_graph: period must be > 0";
  t.graph_periods <- (name, period) :: t.graph_periods

let task_info t w =
  if w < 0 || w >= t.ntasks then invalid_arg "Multirate: unknown task";
  t.task_infos.(w)

let add_task t ~graph ~name ~proc ~wcet ?(weight = 1.0) () =
  if not (List.mem_assoc graph t.graph_periods) then
    invalid_arg "Multirate.add_task: unknown graph";
  if wcet <= 0.0 then invalid_arg "Multirate.add_task: wcet must be > 0";
  claim_name t.task_names name "Multirate.add_task: duplicate task name";
  let w = t.ntasks in
  t.task_infos <-
    push t.task_infos w
      { tname = name; tgraph = graph; tproc = proc; wcet; tweight = weight };
  t.ntasks <- w + 1;
  w

let add_channel t ~name ~src ~production ~dst ~consumption
    ?(initial_tokens = 0) ?(container_size = 1) ?(weight = 1.0) () =
  if production <= 0 || consumption <= 0 then
    invalid_arg "Multirate.add_channel: rates must be > 0";
  if initial_tokens < 0 then
    invalid_arg "Multirate.add_channel: initial tokens must be >= 0";
  let si = task_info t src and di = task_info t dst in
  if si.tgraph <> di.tgraph then
    invalid_arg "Multirate.add_channel: tasks of different graphs";
  claim_name t.channel_names name
    "Multirate.add_channel: duplicate channel name";
  let c = t.nchannels in
  t.channel_infos <-
    push t.channel_infos c
      {
        cname = name;
        cgraph = si.tgraph;
        csrc = src;
        production;
        cdst = dst;
        consumption;
        initial = initial_tokens;
        container_size;
        cweight = weight;
      };
  t.nchannels <- c + 1;
  c

type provenance = {
  config : Config.t;
  copies : rtask -> Config.task list;
  fifos : rchannel -> Config.buffer list;
  task_budget : Config.mapped -> rtask -> float;
  channel_capacity : Config.mapped -> rchannel -> int;
}

let compile ?(serialize = false) t =
  match t.default_memory with
  | None -> Error "Multirate.compile: at least one memory is required"
  | Some default_memory ->
    let cfg = Config.create ~granularity:(Config.granularity t.config_seed) () in
    let procs =
      List.map
        (fun p ->
          ( Config.proc_id p,
            Config.add_processor cfg ~name:(Config.proc_name t.config_seed p)
              ~replenishment:(Config.replenishment t.config_seed p)
              ~overhead:(Config.overhead t.config_seed p) () ))
        (Config.processors t.config_seed)
    in
    let mems =
      List.map
        (fun m ->
          ( Config.memory_id m,
            Config.add_memory cfg ~name:(Config.memory_name t.config_seed m)
              ~capacity:(Config.memory_capacity t.config_seed m) ))
        (Config.memories t.config_seed)
    in
    let mem_of m = List.assoc (Config.memory_id m) mems in
    let proc_of p = List.assoc (Config.proc_id p) procs in
    let task_list = Array.to_list (Array.sub t.task_infos 0 t.ntasks) in
    let channel_list =
      Array.to_list (Array.sub t.channel_infos 0 t.nchannels)
    in
    (* Each graph is a one-phase CSDF graph: its repetition vector and
       the dependency queues of its channels come from the expansion. *)
    let rec per_graph acc = function
      | [] -> Ok (List.rev acc)
      | (gname, period) :: rest -> begin
        let csdf = Csdf.create () in
        let actor = Hashtbl.create 16 and channel = Hashtbl.create 16 in
        List.iteri
          (fun w info ->
            if info.tgraph = gname then
              Hashtbl.replace actor w
                (Csdf.add_actor csdf ~name:info.tname
                   ~durations:[| info.wcet |]))
          task_list;
        List.iteri
          (fun cidx ch ->
            if ch.cgraph = gname then
              Hashtbl.replace channel cidx
                (Csdf.add_channel csdf
                   ~src:(Hashtbl.find actor ch.csrc)
                   ~production:[| ch.production |]
                   ~dst:(Hashtbl.find actor ch.cdst)
                   ~consumption:[| ch.consumption |]
                   ~initial_tokens:ch.initial ()))
          channel_list;
        match Csdf.repetition_vector csdf with
        | Error msg -> Error (Printf.sprintf "graph %s: %s" gname msg)
        | Ok q ->
          let rep w = q (Hashtbl.find actor w) in
          let deps cidx =
            Csdf.dependencies csdf q (Hashtbl.find channel cidx)
          in
          per_graph ((gname, period, rep, deps) :: acc) rest
      end
    in
    (match per_graph [] (List.rev t.graph_periods) with
    | Error _ as e -> e
    | Ok graph_data ->
      let copy_table = Hashtbl.create 16 in
      let fifo_table = Hashtbl.create 16 in
      List.iter
        (fun (gname, period, rep, deps) ->
          let g = Config.add_graph cfg ~name:gname ~period () in
          (* Firing copies. *)
          List.iteri
            (fun w info ->
              if info.tgraph = gname then begin
                let copies =
                  Array.init (rep w) (fun k ->
                      Config.add_task cfg g
                        ~name:(Printf.sprintf "%s#%d" info.tname (k + 1))
                        ~proc:(proc_of info.tproc) ~wcet:info.wcet
                        ~weight:info.tweight ())
                in
                Hashtbl.replace copy_table w copies
              end)
            task_list;
          let copy w k = (Hashtbl.find copy_table w).(k - 1) in
          (* Serialisation FIFOs: a one-token ring through the copies of
             each task enforces in-order, one-in-flight execution. *)
          List.iteri
            (fun w info ->
              if serialize && info.tgraph = gname && rep w > 1 then begin
                let q = rep w in
                for k = 1 to q do
                  let nxt = (k mod q) + 1 in
                  ignore
                    (Config.add_buffer cfg g
                       ~name:(Printf.sprintf "%s.ser%d" info.tname k)
                       ~src:(copy w k) ~dst:(copy w nxt)
                       ~memory:(mem_of default_memory)
                       ~container_size:1
                       ~initial_tokens:(if k = q then 1 else 0)
                       ~weight:0.0 ~max_capacity:1 ())
                done
              end)
            task_list;
          (* One FIFO per dependency queue, created in expansion
             order. *)
          List.iteri
            (fun cidx ch ->
              if ch.cgraph = gname then
                Hashtbl.replace fifo_table cidx
                  (List.fold_left
                     (fun acc (s, l, tokens) ->
                       Config.add_buffer cfg g
                         ~name:(Printf.sprintf "%s#%d-%d" ch.cname s l)
                         ~src:(copy ch.csrc s) ~dst:(copy ch.cdst l)
                         ~memory:(mem_of default_memory)
                         ~container_size:ch.container_size
                         ~initial_tokens:tokens ~weight:ch.cweight ()
                       :: acc)
                     [] (deps cidx)))
            channel_list)
        graph_data;
      let copies w =
        match Hashtbl.find_opt copy_table w with
        | Some c -> Array.to_list c
        | None -> invalid_arg "Multirate.copies: unknown task"
      in
      let fifos c =
        match Hashtbl.find_opt fifo_table c with
        | Some f -> f
        | None -> invalid_arg "Multirate.fifos: unknown channel"
      in
      Ok
        {
          config = cfg;
          copies;
          fifos;
          task_budget =
            (fun (mapped : Config.mapped) w ->
              List.fold_left
                (fun acc c -> acc +. mapped.Config.budget c)
                0.0 (copies w));
          channel_capacity =
            (fun (mapped : Config.mapped) c ->
              List.fold_left
                (fun acc b -> acc + mapped.Config.capacity b)
                0 (fifos c));
        })
