(* The event vocabulary and its line codec.  One event is one Json
   object on one line:

     {"seq":12,"t":0.0312,"ev":"socp_iter","iter":4,"pres":...} *)

type event =
  | Solve_start of { rows : int; cols : int }
  | Solve_end of { status : string; iterations : int; time_s : float }
  | Socp_iter of {
      iter : int;
      pres : float;
      dres : float;
      gap : float;
      step : float;
    }
  | Presolve of { range_before : float; range_after : float }
  | Rung_enter of { attempt : int; stage : string }
  | Rung_exit of {
      attempt : int;
      stage : string;
      status : string;
      fault : string option;
    }
  | Fault_injected of { kind : string; attempt : int }
  | Kkt_factor of { backend : string; phase : string; n : int; nnz : int }
  | Warm_start of { accepted : bool; reason : string }
  | Certificate of { verdict : string }
  | Restore of { index : int; hit : bool }
  | Task_dispatch of { index : int }
  | Task_join of { index : int; ok : bool }
  | Candidate of { index : int; verdict : string }
  | Request_start of { op : string; id : string }
  | Request_done of {
      op : string;
      id : string;
      status : string;
      queue_s : float;
      total_s : float;
    }
  | Cache_hit of { key : string }
  | Cache_miss of { key : string }
  | Shed of { queue : int }
  | Chaos_injected of { kind : string; site : string; ordinal : int }
  | Worker_spawn of { pid : int; slot : int }
  | Worker_exit of { pid : int; reason : string; solves : int }
  | Worker_reaped of { pid : int; after_s : float }
  | Quarantined of { key : string; crashes : int }
  | Tighten_probe of {
      buffer : string;
      capacity : int;
      feasible : bool;
      layer : string;
    }
  | Tighten_accept of { buffer : string; capacity : int; saved : int }
  | Tighten_reject of { buffer : string; capacity : int }
  | Span_open of { name : string }
  | Span_close of { name : string; elapsed_s : float }

type t = { seq : int; time : float; event : event }

let event_name = function
  | Solve_start _ -> "solve_start"
  | Solve_end _ -> "solve_end"
  | Socp_iter _ -> "socp_iter"
  | Presolve _ -> "presolve"
  | Rung_enter _ -> "rung_enter"
  | Rung_exit _ -> "rung_exit"
  | Fault_injected _ -> "fault_injected"
  | Kkt_factor _ -> "kkt_factor"
  | Warm_start _ -> "warm_start"
  | Certificate _ -> "certificate"
  | Restore _ -> "restore"
  | Task_dispatch _ -> "task_dispatch"
  | Task_join _ -> "task_join"
  | Candidate _ -> "candidate"
  | Request_start _ -> "request_start"
  | Request_done _ -> "request_done"
  | Cache_hit _ -> "cache_hit"
  | Cache_miss _ -> "cache_miss"
  | Shed _ -> "shed"
  | Chaos_injected _ -> "chaos_injected"
  | Worker_spawn _ -> "worker_spawn"
  | Worker_exit _ -> "worker_exit"
  | Worker_reaped _ -> "worker_reaped"
  | Quarantined _ -> "quarantined"
  | Tighten_probe _ -> "tighten_probe"
  | Tighten_accept _ -> "tighten_accept"
  | Tighten_reject _ -> "tighten_reject"
  | Span_open _ -> "span_open"
  | Span_close _ -> "span_close"

(* ---- encoding ---------------------------------------------------- *)

let fields_of_event event : Json.obj =
  Json.(
    match event with
    | Solve_start { rows; cols } -> [ ("rows", Int rows); ("cols", Int cols) ]
    | Solve_end { status; iterations; time_s } ->
      [
        ("status", String status);
        ("iterations", Int iterations);
        ("time_s", Number time_s);
      ]
    | Socp_iter { iter; pres; dres; gap; step } ->
      [
        ("iter", Int iter);
        ("pres", Number pres);
        ("dres", Number dres);
        ("gap", Number gap);
        ("step", Number step);
      ]
    | Presolve { range_before; range_after } ->
      [
        ("range_before", Number range_before);
        ("range_after", Number range_after);
      ]
    | Rung_enter { attempt; stage } ->
      [ ("attempt", Int attempt); ("stage", String stage) ]
    | Rung_exit { attempt; stage; status; fault } ->
      [
        ("attempt", Int attempt);
        ("stage", String stage);
        ("status", String status);
      ]
      @ (match fault with None -> [] | Some f -> [ ("fault", String f) ])
    | Fault_injected { kind; attempt } ->
      [ ("kind", String kind); ("attempt", Int attempt) ]
    | Kkt_factor { backend; phase; n; nnz } ->
      [
        ("backend", String backend);
        ("phase", String phase);
        ("n", Int n);
        ("nnz", Int nnz);
      ]
    | Warm_start { accepted; reason } ->
      [ ("accepted", Bool accepted); ("reason", String reason) ]
    | Certificate { verdict } -> [ ("verdict", String verdict) ]
    | Restore { index; hit } -> [ ("index", Int index); ("hit", Bool hit) ]
    | Task_dispatch { index } -> [ ("index", Int index) ]
    | Task_join { index; ok } -> [ ("index", Int index); ("ok", Bool ok) ]
    | Candidate { index; verdict } ->
      [ ("index", Int index); ("verdict", String verdict) ]
    | Request_start { op; id } -> [ ("op", String op); ("id", String id) ]
    | Request_done { op; id; status; queue_s; total_s } ->
      [
        ("op", String op);
        ("id", String id);
        ("status", String status);
        ("queue_s", Number queue_s);
        ("total_s", Number total_s);
      ]
    | Cache_hit { key } -> [ ("key", String key) ]
    | Cache_miss { key } -> [ ("key", String key) ]
    | Shed { queue } -> [ ("queue", Int queue) ]
    | Chaos_injected { kind; site; ordinal } ->
      [ ("kind", String kind); ("site", String site); ("ordinal", Int ordinal) ]
    | Worker_spawn { pid; slot } -> [ ("pid", Int pid); ("slot", Int slot) ]
    | Worker_exit { pid; reason; solves } ->
      [ ("pid", Int pid); ("reason", String reason); ("solves", Int solves) ]
    | Worker_reaped { pid; after_s } ->
      [ ("pid", Int pid); ("after_s", Number after_s) ]
    | Quarantined { key; crashes } ->
      [ ("key", String key); ("crashes", Int crashes) ]
    | Tighten_probe { buffer; capacity; feasible; layer } ->
      [
        ("buffer", String buffer);
        ("capacity", Int capacity);
        ("feasible", Bool feasible);
        ("layer", String layer);
      ]
    | Tighten_accept { buffer; capacity; saved } ->
      [
        ("buffer", String buffer);
        ("capacity", Int capacity);
        ("saved", Int saved);
      ]
    | Tighten_reject { buffer; capacity } ->
      [ ("buffer", String buffer); ("capacity", Int capacity) ]
    | Span_open { name } -> [ ("name", String name) ]
    | Span_close { name; elapsed_s } ->
      [ ("name", String name); ("elapsed_s", Number elapsed_s) ])

(* The trace's one addition to the codec: a non-finite float is written
   as the string "nan", "inf" or "-inf" (the decoder accepts both
   spellings), and [summary] prints it quoted. *)
let non_finite f =
  if Float.is_nan f then "nan" else if f > 0.0 then "inf" else "-inf"

let quote_non_finite = function
  | Json.Number f when not (Float.is_finite f) -> Json.String (non_finite f)
  | v -> v

let to_json { seq; time; event } =
  Json.render
    (("seq", Json.Int seq)
    :: ("t", quote_non_finite (Json.Number time))
    :: ("ev", Json.String (event_name event))
    :: List.map
         (fun (k, v) -> (k, quote_non_finite v))
         (fields_of_event event))

(* One-line human rendering for `budgetbuf trace cat`.  The timestamp
   is deliberately omitted — it is the one nondeterministic column, and
   leaving it out keeps golden cram output stable. *)
let summary { seq; event; _ } =
  let field (k, v) =
    k ^ "="
    ^
    match v with
    | Json.String s -> s
    | Json.Number f when Float.is_finite f -> Printf.sprintf "%.17g" f
    | Json.Number f -> "\"" ^ non_finite f ^ "\""
    | Json.Int i -> string_of_int i
    | Json.Bool v -> string_of_bool v
  in
  String.concat " "
    (string_of_int seq :: event_name event
    :: List.map field (fields_of_event event))

(* ---- decoding ---------------------------------------------------- *)

exception Bad

let of_json_line line =
  match
    let obj =
      match Json.parse line with Ok obj -> obj | Error _ -> raise Bad
    in
    let get field k =
      match field obj k with Some v -> v | None -> raise Bad
    in
    let str = get Json.str and int = get Json.int in
    let boolean = get Json.bool in
    let num k =
      match List.assoc_opt k obj with
      | Some (Json.Number f) -> f
      | Some (Json.String "nan") -> Float.nan
      | Some (Json.String "inf") -> Float.infinity
      | Some (Json.String "-inf") -> Float.neg_infinity
      | _ -> raise Bad
    in
    let event =
      match str "ev" with
      | "solve_start" -> Solve_start { rows = int "rows"; cols = int "cols" }
      | "solve_end" ->
        Solve_end
          {
            status = str "status";
            iterations = int "iterations";
            time_s = num "time_s";
          }
      | "socp_iter" ->
        Socp_iter
          {
            iter = int "iter";
            pres = num "pres";
            dres = num "dres";
            gap = num "gap";
            step = num "step";
          }
      | "presolve" ->
        Presolve
          { range_before = num "range_before"; range_after = num "range_after" }
      | "rung_enter" ->
        Rung_enter { attempt = int "attempt"; stage = str "stage" }
      | "rung_exit" ->
        Rung_exit
          {
            attempt = int "attempt";
            stage = str "stage";
            status = str "status";
            fault =
              (match List.assoc_opt "fault" obj with
              | Some (Json.String s) -> Some s
              | None -> None
              | Some _ -> raise Bad);
          }
      | "fault_injected" ->
        Fault_injected { kind = str "kind"; attempt = int "attempt" }
      | "kkt_factor" ->
        Kkt_factor
          {
            backend = str "backend";
            phase = str "phase";
            n = int "n";
            nnz = int "nnz";
          }
      | "warm_start" ->
        Warm_start { accepted = boolean "accepted"; reason = str "reason" }
      | "certificate" -> Certificate { verdict = str "verdict" }
      | "restore" -> Restore { index = int "index"; hit = boolean "hit" }
      | "task_dispatch" -> Task_dispatch { index = int "index" }
      | "task_join" -> Task_join { index = int "index"; ok = boolean "ok" }
      | "candidate" ->
        Candidate { index = int "index"; verdict = str "verdict" }
      | "request_start" -> Request_start { op = str "op"; id = str "id" }
      | "request_done" ->
        Request_done
          {
            op = str "op";
            id = str "id";
            status = str "status";
            queue_s = num "queue_s";
            total_s = num "total_s";
          }
      | "cache_hit" -> Cache_hit { key = str "key" }
      | "cache_miss" -> Cache_miss { key = str "key" }
      | "shed" -> Shed { queue = int "queue" }
      | "chaos_injected" ->
        Chaos_injected
          { kind = str "kind"; site = str "site"; ordinal = int "ordinal" }
      | "worker_spawn" -> Worker_spawn { pid = int "pid"; slot = int "slot" }
      | "worker_exit" ->
        Worker_exit
          { pid = int "pid"; reason = str "reason"; solves = int "solves" }
      | "worker_reaped" ->
        Worker_reaped { pid = int "pid"; after_s = num "after_s" }
      | "quarantined" ->
        Quarantined { key = str "key"; crashes = int "crashes" }
      | "tighten_probe" ->
        Tighten_probe
          {
            buffer = str "buffer";
            capacity = int "capacity";
            feasible = boolean "feasible";
            layer =
              (* traces written before the cycle bound simulated every
                 probe *)
              (match List.assoc_opt "layer" obj with
              | Some (Json.String s) -> s
              | None -> "sim"
              | Some _ -> raise Bad);
          }
      | "tighten_accept" ->
        Tighten_accept
          { buffer = str "buffer"; capacity = int "capacity"; saved = int "saved" }
      | "tighten_reject" ->
        Tighten_reject { buffer = str "buffer"; capacity = int "capacity" }
      | "span_open" -> Span_open { name = str "name" }
      | "span_close" ->
        Span_close { name = str "name"; elapsed_s = num "elapsed_s" }
      | _ -> raise Bad
    in
    { seq = int "seq"; time = num "t"; event }
  with
  | t -> Some t
  | exception Bad -> None
