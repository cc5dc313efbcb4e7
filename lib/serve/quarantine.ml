(* Poison-request quarantine.

   A request that crashes an isolated solve worker is not proof of a
   bad instance — the worker may have been OOM-killed by a noisy
   neighbour — but a request that does it repeatedly is.  Every crash
   is attributed to the request's canonical cache key and appended to a
   journal; once a key accumulates [threshold] crashes it is poisoned,
   and the server answers future identical instances with a clean
   [poisoned] reply instead of feeding them another worker.

   Keys follow [Cache.canonical_key], so quarantine covers every
   semantically identical instance, not just byte-identical request
   texts.  The journal reuses the crash-safe [Durable.Journal] line
   format: a supervisor that is itself SIGKILLed mid-campaign reloads
   the full crash history on restart, and damaged interior lines are
   salvaged to a sidecar rather than truncating the history behind
   them (exactly the [Cache] salvage discipline). *)

type stats = {
  keys : int;  (* distinct keys with at least one recorded crash *)
  poisoned : int;  (* keys at or past the threshold *)
  crashes : int;  (* total recorded crashes *)
  salvaged : int;  (* damaged journal lines moved to the sidecar *)
  io_errors : int;
}

type t = {
  journal : Durable.Journal.t option;
  lock : Mutex.t;
  threshold : int;
  counts : (string, int ref) Hashtbl.t;
  mutable next_index : int;
  mutable crashes : int;
  mutable io_errors : int;
}

let fingerprint =
  Durable.Journal.fingerprint [ "budgetbuf-serve-quarantine"; "1" ]

let payload_of ~key ~reason = Printf.sprintf "crash %S %S" key reason

let decode_payload payload =
  let ib = Scanf.Scanning.from_string payload in
  match Budgetbuf.Durability.scan_token ib with
  | "crash" ->
    let key = Budgetbuf.Durability.scan_quoted ib in
    let reason = Budgetbuf.Durability.scan_quoted ib in
    Some (key, reason)
  | _ -> None
  | exception (Scanf.Scan_failure _ | Failure _ | End_of_file) -> None

(* One more crash of [key]: its new count. *)
let bump counts key =
  match Hashtbl.find_opt counts key with
  | Some r ->
    incr r;
    !r
  | None ->
    Hashtbl.add counts key (ref 1);
    1

let create ?path ?chaos ~threshold () =
  if threshold < 1 then
    invalid_arg "Serve.Quarantine.create: threshold must be >= 1";
  match
    Option.fold ~none:(Ok None)
      ~some:(fun path ->
        Result.map Option.some
          (Durable.Journal.resume ~salvage:true ?chaos ~fingerprint path))
      path
  with
  | Error _ as e -> e
  | Ok journal ->
    let counts = Hashtbl.create 16 in
    let next_index = ref 0 in
    let crashes = ref 0 in
    List.iter
      (fun { Durable.Journal.index; payload } ->
        next_index := max !next_index (index + 1);
        match decode_payload payload with
        | Some (key, _reason) ->
          incr crashes;
          ignore (bump counts key)
        | None -> ())
      (Option.fold ~none:[] ~some:Durable.Journal.entries journal);
    Ok
      {
        journal;
        lock = Mutex.create ();
        threshold;
        counts;
        next_index = !next_index;
        crashes = !crashes;
        io_errors = 0;
      }

let threshold t = t.threshold

let note_crash t ~key ~reason =
  Mutex.lock t.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.lock)
    (fun () ->
      (* Journal first: losing the in-memory bump is impossible (we
         hold the lock), losing the disk record on a crash between the
         bump and the append would under-count — so the append comes
         first, and a failed write degrades durability, not counting. *)
      (match t.journal with
      | None -> ()
      | Some journal -> (
        let index = t.next_index in
        t.next_index <- index + 1;
        match
          Durable.Journal.record journal ~index
            ~payload:(payload_of ~key ~reason)
        with
        | () -> ()
        | exception Unix.Unix_error _ -> t.io_errors <- t.io_errors + 1));
      t.crashes <- t.crashes + 1;
      bump t.counts key)

let crashes t ~key =
  Mutex.lock t.lock;
  let n =
    match Hashtbl.find_opt t.counts key with Some r -> !r | None -> 0
  in
  Mutex.unlock t.lock;
  n

let poisoned t ~key =
  let n = crashes t ~key in
  if n >= t.threshold then Some n else None

let stats t =
  Mutex.lock t.lock;
  let poisoned =
    Hashtbl.fold
      (fun _ r acc -> if !r >= t.threshold then acc + 1 else acc)
      t.counts 0
  in
  let s =
    {
      keys = Hashtbl.length t.counts;
      poisoned;
      crashes = t.crashes;
      salvaged =
        Option.fold ~none:0 ~some:Durable.Journal.salvaged t.journal;
      io_errors = t.io_errors;
    }
  in
  Mutex.unlock t.lock;
  s

let close t =
  match t.journal with
  | None -> ()
  | Some journal -> Durable.Journal.close journal
