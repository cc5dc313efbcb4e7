(* Typed view over the wire objects.  Decoding is total: anything that
   doesn't fit the grammar comes back [Error reason], and the server
   turns that into a [Refused] reply instead of dropping the
   connection. *)

module Json = Obs.Json

(* Bumped whenever the wire grammar changes incompatibly.  The ping
   request and the ready reply both carry it, so a mismatched
   client/server pair fails the health exchange with one clean line
   instead of a cascade of framing errors.  Version 2 added
   process-isolated workers (the [poisoned] status and the worker
   counters in stats); version 3 added the [cause] of a [failed]
   reply. *)
let version = 3

(* ---- the verdict of one solve ------------------------------------ *)

type solved = {
  mapping : string;
  certificate : string;
  objective : float;
  rounded_objective : float;
}

type cause =
  | Solver of Budgetbuf.Mapping.failure
  | Worker_crashed
  | Unavailable
  | Handler

(* The one table of cause labels: the solve's own failures keep the
   labels sweeps print and journals record. *)
let cause_names =
  List.map (fun (f, name) -> (Solver f, name)) Budgetbuf.Mapping.failures
  @ [
      (Worker_crashed, "worker crashed");
      (Unavailable, "unavailable");
      (Handler, "handler");
    ]

(* The inverse of a label table. *)
let of_name table name =
  List.find_map (fun (v, n) -> if n = name then Some v else None) table

let causes = List.map fst cause_names
let cause_name c = List.assoc c cause_names

let ( let* ) = Result.bind

(* A field a frame must carry, of the type [kind] names. *)
let field get kind obj k =
  Option.to_result (get obj k)
    ~none:(Printf.sprintf "missing or non-%s field %S" kind k)

let required_str = field Json.str "string"
let required_number = field Json.number "number"

let solved_fields s =
  [
    ("mapping", Json.String s.mapping);
    ("certificate", Json.String s.certificate);
    ("objective", Json.Number s.objective);
    ("rounded_objective", Json.Number s.rounded_objective);
  ]

let solved_of_fields obj =
  let* mapping = required_str obj "mapping" in
  let* certificate = required_str obj "certificate" in
  let* objective = required_number obj "objective" in
  let* rounded_objective = required_number obj "rounded_objective" in
  Ok { mapping; certificate; objective; rounded_objective }

let failure_fields cause reason =
  [ ("cause", Json.String (cause_name cause)); ("reason", Json.String reason) ]

let failure_of_fields obj =
  let* name = required_str obj "cause" in
  let* cause =
    Option.to_result (of_name cause_names name)
      ~none:(Printf.sprintf "unknown cause %S" name)
  in
  let* reason = required_str obj "reason" in
  Ok (cause, reason)

type request =
  | Admit of {
      id : string;
      config : string;
      deadline_s : float option;
      fault : string option;
      retry : bool;
          (* a client re-issue after a lost reply: the server may
             answer [Admitted] for an id it already admitted, provided
             the canonical instance matches — never double-charging
             capacity *)
    }
  | Release of { id : string }
  | Ping
  | Stats
  | Shutdown

type readiness = Starting | Serving | Draining

let readiness_names =
  [ (Starting, "starting"); (Serving, "serving"); (Draining, "draining") ]

let readiness_name r = List.assoc r readiness_names

type stats = {
  admitted : int;
  rejected : int;
  infeasible : int;
  timed_out : int;
  failed : int;
  poisoned : int;
  shed : int;
  refused : int;
  cache_hits : int;
  cache_misses : int;
  released : int;
  pings : int;
  live : int;
  queue : int;
  worker_crashes : int;
}

let zero_stats =
  {
    admitted = 0;
    rejected = 0;
    infeasible = 0;
    timed_out = 0;
    failed = 0;
    poisoned = 0;
    shed = 0;
    refused = 0;
    cache_hits = 0;
    cache_misses = 0;
    released = 0;
    pings = 0;
    live = 0;
    queue = 0;
    worker_crashes = 0;
  }

type response =
  | Admitted of {
      id : string;
      cache : [ `Hit | `Miss ];
      mapping : string;
      certificate : string;
      objective : float;
      rounded_objective : float;
      attempts : int;
    }
  | Rejected of { id : string; reason : string }
  | Unsat of { id : string; reason : string }
  | Late of { id : string; reason : string }
  | Failed of { id : string; cause : cause; reason : string }
  | Poisoned of { id : string; reason : string }
  | Overloaded of { id : string; retry_after_s : float }
  | Released of { id : string; found : bool }
  | Ready of { state : readiness }
  | Stats_reply of stats
  | Refused of { reason : string }
  | Bye

let status_of_response = function
  | Admitted _ -> "admitted"
  | Rejected _ -> "rejected"
  | Unsat _ -> "infeasible"
  | Late _ -> "timed_out"
  | Failed _ -> "failed"
  | Poisoned _ -> "poisoned"
  | Overloaded _ -> "overloaded"
  | Released _ -> "released"
  | Ready _ -> "ready"
  | Stats_reply _ -> "stats"
  | Refused _ -> "error"
  | Bye -> "shutting_down"

let cache_tags = [ (`Hit, "hit"); (`Miss, "miss") ]

let admitted ~id ~cache ~attempts s =
  Admitted
    {
      id;
      cache;
      mapping = s.mapping;
      certificate = s.certificate;
      objective = s.objective;
      rounded_objective = s.rounded_objective;
      attempts;
    }

(* ---- requests ---------------------------------------------------- *)

(* The version a ping or ready frame announces, if it carries one. *)
let announced_version obj ~peer =
  match (List.assoc_opt "v" obj, Json.int obj "v") with
  | None, _ -> Ok ()
  | Some _, Some v when v = version -> Ok ()
  | Some _, Some v ->
    Error
      (Printf.sprintf
         "protocol version mismatch: %s speaks v%d, this build speaks v%d" peer
         v version)
  | Some _, None -> Error "ill-typed field \"v\""

let request_to_line = function
  | Admit { id; config; deadline_s; fault; retry } ->
    Json.render
      ([ ("op", Json.String "admit"); ("id", Json.String id) ]
      @ (match deadline_s with
        | Some s -> [ ("deadline_s", Json.Number s) ]
        | None -> [])
      @ (match fault with
        | Some f -> [ ("fault", Json.String f) ]
        | None -> [])
      @ (if retry then [ ("retry", Json.Bool true) ] else [])
      @ [ ("config", Json.String config) ])
  | Release { id } ->
    Json.render [ ("op", Json.String "release"); ("id", Json.String id) ]
  | Ping ->
    Json.render [ ("op", Json.String "ping"); ("v", Json.Int version) ]
  | Stats -> Json.render [ ("op", Json.String "stats") ]
  | Shutdown -> Json.render [ ("op", Json.String "shutdown") ]

let request_of_line line =
  match Json.parse line with
  | Error msg -> Error ("malformed request: " ^ msg)
  | Ok obj -> (
    let required = required_str obj in
    match Json.str obj "op" with
    | None -> Error "missing or non-string field \"op\""
    | Some "admit" ->
      (* A present field of the wrong type is an error, not a silently
         dropped option. *)
      let opt k get =
        match (List.assoc_opt k obj, get obj k) with
        | None, _ -> Ok None
        | Some _, Some x -> Ok (Some x)
        | Some _, None -> Error (Printf.sprintf "ill-typed field %S" k)
      in
      let* id = required "id" in
      let* config = required "config" in
      if id = "" then Error "empty job id"
      else
        let* deadline_s = opt "deadline_s" Json.number in
        if Option.fold ~none:false ~some:(fun s -> s <= 0.0) deadline_s then
          Error "non-positive deadline_s"
        else
          let* fault = opt "fault" Json.str in
          let* retry = opt "retry" Json.bool in
          Ok
            (Admit
               {
                 id;
                 config;
                 deadline_s;
                 fault;
                 retry = Option.value retry ~default:false;
               })
    | Some "release" -> Result.map (fun id -> Release { id }) (required "id")
    | Some "ping" ->
      (* The version handshake rides on ping: a peer that announces a
         different protocol version gets one clean mismatch line back
         instead of per-field decode failures on its next request.  A
         ping without the field is accepted as a bare liveness probe. *)
      Result.map (fun () -> Ping) (announced_version obj ~peer:"peer")
    | Some "stats" -> Ok Stats
    | Some "shutdown" -> Ok Shutdown
    | Some op -> Error (Printf.sprintf "unknown op %S" op))

(* ---- responses --------------------------------------------------- *)

let stats_fields s =
  [
    ("admitted", Json.Int s.admitted);
    ("rejected", Json.Int s.rejected);
    ("infeasible", Json.Int s.infeasible);
    ("timed_out", Json.Int s.timed_out);
    ("failed", Json.Int s.failed);
    ("poisoned", Json.Int s.poisoned);
    ("shed", Json.Int s.shed);
    ("refused", Json.Int s.refused);
    ("cache_hits", Json.Int s.cache_hits);
    ("cache_misses", Json.Int s.cache_misses);
    ("released", Json.Int s.released);
    ("pings", Json.Int s.pings);
    ("live", Json.Int s.live);
    ("queue", Json.Int s.queue);
    ("worker_crashes", Json.Int s.worker_crashes);
  ]

let response_to_line r =
  let status = ("status", Json.String (status_of_response r)) in
  match r with
  | Admitted { id; cache; mapping; certificate; objective; rounded_objective;
               attempts } ->
    Json.render
      ([
         status;
         ("id", Json.String id);
         ("cache", Json.String (List.assoc cache cache_tags));
       ]
      @ solved_fields { mapping; certificate; objective; rounded_objective }
      @ [ ("attempts", Json.Int attempts) ])
  | Failed { id; cause; reason } ->
    Json.render
      (status :: ("id", Json.String id) :: failure_fields cause reason)
  | Rejected { id; reason } | Unsat { id; reason } | Late { id; reason }
  | Poisoned { id; reason } ->
    Json.render
      [ status; ("id", Json.String id); ("reason", Json.String reason) ]
  | Overloaded { id; retry_after_s } ->
    Json.render
      [
        status;
        ("id", Json.String id);
        ("retry_after_s", Json.Number retry_after_s);
      ]
  | Released { id; found } ->
    Json.render [ status; ("id", Json.String id); ("found", Json.Bool found) ]
  | Ready { state } ->
    Json.render
      [
        status;
        ("state", Json.String (readiness_name state));
        ("v", Json.Int version);
      ]
  | Stats_reply s -> Json.render (status :: stats_fields s)
  | Refused { reason } -> Json.render [ status; ("reason", Json.String reason) ]
  | Bye -> Json.render [ status ]

let response_of_line line =
  match Json.parse line with
  | Error msg -> Error ("malformed reply: " ^ msg)
  | Ok obj -> (
    let required = required_str obj in
    let with_id_reason mk =
      let* id = required "id" in
      let* reason = required "reason" in
      Ok (mk id reason)
    in
    match Json.str obj "status" with
    | None -> Error "missing or non-string field \"status\""
    | Some "admitted" ->
      let* id = required "id" in
      let* tag = required "cache" in
      let* cache =
        Option.to_result (of_name cache_tags tag) ~none:"bad cache tag"
      in
      let* solved = solved_of_fields obj in
      let* attempts = field Json.int "integer" obj "attempts" in
      Ok (admitted ~id ~cache ~attempts solved)
    | Some "rejected" -> with_id_reason (fun id reason -> Rejected { id; reason })
    | Some "infeasible" -> with_id_reason (fun id reason -> Unsat { id; reason })
    | Some "timed_out" -> with_id_reason (fun id reason -> Late { id; reason })
    | Some "failed" ->
      let* id = required "id" in
      let* cause, reason = failure_of_fields obj in
      Ok (Failed { id; cause; reason })
    | Some "poisoned" ->
      with_id_reason (fun id reason -> Poisoned { id; reason })
    | Some "overloaded" ->
      let* id = required "id" in
      let* retry_after_s = required_number obj "retry_after_s" in
      Ok (Overloaded { id; retry_after_s })
    | Some "released" ->
      let* id = required "id" in
      let* found = field Json.bool "boolean" obj "found" in
      Ok (Released { id; found })
    | Some "ready" ->
      let* s = required "state" in
      let* state =
        Option.to_result (of_name readiness_names s)
          ~none:(Printf.sprintf "unknown readiness state %S" s)
      in
      let* () = announced_version obj ~peer:"server" in
      Ok (Ready { state })
    | Some "stats" ->
      let count k =
        match Json.int obj k with
        | Some n when n >= 0 -> Ok n
        | Some _ | None ->
          Error (Printf.sprintf "missing or non-count field %S" k)
      in
      let* admitted = count "admitted" in
      let* rejected = count "rejected" in
      let* infeasible = count "infeasible" in
      let* timed_out = count "timed_out" in
      let* failed = count "failed" in
      let* poisoned = count "poisoned" in
      let* shed = count "shed" in
      let* refused = count "refused" in
      let* cache_hits = count "cache_hits" in
      let* cache_misses = count "cache_misses" in
      let* released = count "released" in
      let* pings = count "pings" in
      let* live = count "live" in
      let* queue = count "queue" in
      let* worker_crashes = count "worker_crashes" in
      Ok
        (Stats_reply
           {
             admitted;
             rejected;
             infeasible;
             timed_out;
             failed;
             poisoned;
             shed;
             refused;
             cache_hits;
             cache_misses;
             released;
             pings;
             live;
             queue;
             worker_crashes;
           })
    | Some "error" ->
      Result.map (fun reason -> Refused { reason }) (required "reason")
    | Some "shutting_down" -> Ok Bye
    | Some status -> Error (Printf.sprintf "unknown status %S" status))
