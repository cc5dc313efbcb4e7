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
   counters in stats). *)
let version = 2

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

let readiness_name = function
  | Starting -> "starting"
  | Serving -> "serving"
  | Draining -> "draining"

let readiness_of_name = function
  | "starting" -> Some Starting
  | "serving" -> Some Serving
  | "draining" -> Some Draining
  | _ -> None

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
  | Failed of { id : string; reason : string }
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

(* ---- requests ---------------------------------------------------- *)

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

let ( let* ) = Result.bind

let request_of_line line =
  match Json.parse line with
  | Error msg -> Error ("malformed request: " ^ msg)
  | Ok obj -> (
    let required k =
      match Json.str obj k with
      | Some v -> Ok v
      | None -> Error (Printf.sprintf "missing or non-string field %S" k)
    in
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
    | Some "release" -> (
      match required "id" with
      | Ok id -> Ok (Release { id })
      | Error _ as e -> e)
    | Some "ping" -> (
      (* The version handshake rides on ping: a peer that announces a
         different protocol version gets one clean mismatch line back
         instead of per-field decode failures on its next request.  A
         ping without the field is accepted as a bare liveness probe. *)
      match List.assoc_opt "v" obj with
      | None -> Ok Ping
      | Some _ -> (
        match Json.int obj "v" with
        | Some v when v = version -> Ok Ping
        | Some v ->
          Error
            (Printf.sprintf
               "protocol version mismatch: peer speaks v%d, this build speaks \
                v%d" v version)
        | None -> Error "ill-typed field \"v\""))
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
      [
        status;
        ("id", Json.String id);
        ("cache", Json.String (match cache with `Hit -> "hit" | `Miss -> "miss"));
        ("mapping", Json.String mapping);
        ("certificate", Json.String certificate);
        ("objective", Json.Number objective);
        ("rounded_objective", Json.Number rounded_objective);
        ("attempts", Json.Int attempts);
      ]
  | Rejected { id; reason } | Unsat { id; reason } | Late { id; reason }
  | Failed { id; reason } | Poisoned { id; reason } ->
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
    let required k =
      match Json.str obj k with
      | Some v -> Ok v
      | None -> Error (Printf.sprintf "missing or non-string field %S" k)
    in
    let with_id_reason mk =
      match (required "id", required "reason") with
      | Ok id, Ok reason -> Ok (mk id reason)
      | (Error _ as e), _ | _, (Error _ as e) -> e
    in
    match Json.str obj "status" with
    | None -> Error "missing or non-string field \"status\""
    | Some "admitted" ->
      let num k =
        match Json.number obj k with
        | Some f -> Ok f
        | None -> Error (Printf.sprintf "missing or non-number field %S" k)
      in
      let* id = required "id" in
      let* cache_tag = required "cache" in
      let* mapping = required "mapping" in
      let* certificate = required "certificate" in
      let* objective = num "objective" in
      let* rounded_objective = num "rounded_objective" in
      let* attempts =
        Option.to_result (Json.int obj "attempts")
          ~none:"missing or non-integer field \"attempts\""
      in
      let* cache =
        match cache_tag with
        | "hit" -> Ok `Hit
        | "miss" -> Ok `Miss
        | _ -> Error "bad cache tag"
      in
      Ok
        (Admitted
           {
             id;
             cache;
             mapping;
             certificate;
             objective;
             rounded_objective;
             attempts;
           })
    | Some "rejected" -> with_id_reason (fun id reason -> Rejected { id; reason })
    | Some "infeasible" -> with_id_reason (fun id reason -> Unsat { id; reason })
    | Some "timed_out" -> with_id_reason (fun id reason -> Late { id; reason })
    | Some "failed" -> with_id_reason (fun id reason -> Failed { id; reason })
    | Some "poisoned" ->
      with_id_reason (fun id reason -> Poisoned { id; reason })
    | Some "overloaded" -> (
      match (required "id", Json.number obj "retry_after_s") with
      | Ok id, Some retry_after_s -> Ok (Overloaded { id; retry_after_s })
      | (Error _ as e), _ -> e
      | _, None -> Error "missing or non-number field \"retry_after_s\"")
    | Some "released" -> (
      match (required "id", Json.bool obj "found") with
      | Ok id, Some found -> Ok (Released { id; found })
      | (Error _ as e), _ -> e
      | _, None -> Error "missing or non-boolean field \"found\"")
    | Some "ready" -> (
      match required "state" with
      | Ok s -> (
        match readiness_of_name s with
        | Some state -> (
          match List.assoc_opt "v" obj with
          | None -> Ok (Ready { state })
          | Some _ -> (
            match Json.int obj "v" with
            | Some v when v = version -> Ok (Ready { state })
            | Some v ->
              Error
                (Printf.sprintf
                   "protocol version mismatch: server speaks v%d, this build \
                    speaks v%d" v version)
            | None -> Error "ill-typed field \"v\""))
        | None -> Error (Printf.sprintf "unknown readiness state %S" s))
      | Error _ as e -> e)
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
    | Some "error" -> (
      match required "reason" with
      | Ok reason -> Ok (Refused { reason })
      | Error _ as e -> e)
    | Some "shutting_down" -> Ok Bye
    | Some status -> Error (Printf.sprintf "unknown status %S" status))
