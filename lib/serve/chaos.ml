(* Schedule-driven chaos injection for the serve stack.

   The injector is the I/O-boundary sibling of Robust.Fault's solver
   plans: a seeded spec decides, deterministically, which operations
   get sabotaged and how.  Decisions are keyed on semantic ordinals —
   the n-th parsed request, the n-th journal record — never on
   syscall counts or wall clock, so the same seed replays the exact
   same injection sequence regardless of scheduling, read chunking or
   machine speed.  Every firing is appended to an in-memory log and
   emitted as a [Chaos_injected] trace event. *)

type kind =
  | Torn  (* replies dribble out one byte per write *)
  | Reset  (* the connection is dropped without a reply *)
  | Stall  (* the handler naps before answering *)
  | Exn  (* the handler raises mid-request *)
  | Fsync  (* a journal record fails with EIO *)
  | Corrupt  (* a journal record lands with a flipped byte *)
  | Mix  (* every kind, chosen per firing *)

type spec = { skind : kind; every : int; seed : int }

let default_every = 4

(* Options are [n=N] (fire one operation in N, default 4) and [seed=S];
   bare integers are positional shorthand in that order, matching the
   --fault habit of terse specs. *)
let grammar =
  {
    Robust.Spec.name = "chaos";
    kinds =
      [
        (Torn, "torn");
        (Reset, "reset");
        (Stall, "stall");
        (Exn, "exn");
        (Fsync, "fsync");
        (Corrupt, "corrupt");
        (Mix, "all");
      ];
    plan = (fun skind -> { skind; every = default_every; seed = 0 });
    kind = (fun s -> s.skind);
    keys =
      [
        Robust.Spec.int_key "n" ~at_least:`One
          ~get:(fun s -> if s.every = default_every then None else Some s.every)
          ~set:(fun s every -> { s with every });
        Robust.Spec.int_key "seed" ~at_least:`Any
          ~get:(fun s -> if s.seed = 0 then None else Some s.seed)
          ~set:(fun s seed -> { s with seed });
      ];
    positional = 2;
  }

let kind_name = Robust.Spec.kind_name grammar
let of_string = Robust.Spec.parse grammar
let to_string = Robust.Spec.to_string grammar
let of_env () = Robust.Spec.of_env grammar ~var:"BUDGETBUF_CHAOS"

(* ---- the injector ------------------------------------------------ *)

type injection = { site : string; ordinal : int; fired : string }

type t = {
  spec : spec;
  obs : Obs.Ctx.t option;
  lock : Mutex.t;
  counters : (string, int ref) Hashtbl.t;
  mutable injections : injection list;  (* newest first *)
}

let create ?obs spec =
  {
    spec;
    obs;
    lock = Mutex.create ();
    counters = Hashtbl.create 4;
    injections = [];
  }

let spec t = t.spec

(* One decision per semantic operation: bump the site's ordinal, draw
   from the (seed, site, ordinal) stream, and fire when the draw says
   so.  [eligible] lists the kinds the site can express; a spec pinned
   to a kind the site cannot express never fires there. *)
let decide t ~site ~eligible =
  Mutex.lock t.lock;
  let counter =
    match Hashtbl.find_opt t.counters site with
    | Some c -> c
    | None ->
      let c = ref 0 in
      Hashtbl.add t.counters site c;
      c
  in
  let ordinal = !counter in
  incr counter;
  let fired =
    let { skind; every; seed } = t.spec in
    if Robust.Fault.det_int ~seed ~salt:site ~bound:every ordinal <> 0 then None
    else
      match skind with
      | Mix ->
        let n = List.length eligible in
        if n = 0 then None
        else
          Some
            (List.nth eligible
               (Robust.Fault.det_int ~seed ~salt:(site ^ "/kind") ~bound:n
                  ordinal))
      | k -> if List.mem k eligible then Some k else None
  in
  (match fired with
  | None -> ()
  | Some k ->
    t.injections <-
      { site; ordinal; fired = kind_name k } :: t.injections);
  Mutex.unlock t.lock;
  (match (fired, t.obs) with
  | Some k, Some ctx ->
    Obs.Ctx.emit ctx
      (Obs.Trace.Chaos_injected { kind = kind_name k; site; ordinal })
  | _ -> ());
  fired

type request_action = Pass | Torn_reply | Stall_handler | Drop_conn | Raise_exn

let on_request = function
  | None -> Pass
  | Some t -> begin
    match
      decide t ~site:"request" ~eligible:[ Torn; Reset; Stall; Exn ]
    with
    | None -> Pass
    | Some Torn -> Torn_reply
    | Some Reset -> Drop_conn
    | Some Stall -> Stall_handler
    | Some Exn -> Raise_exn
    | Some (Fsync | Corrupt | Mix) -> Pass
  end

let journal_hook = function
  | None -> None
  | Some t ->
    Some
      (fun () ->
        match decide t ~site:"journal" ~eligible:[ Fsync; Corrupt ] with
        | None -> `Pass
        | Some Fsync -> `Fail
        | Some Corrupt -> `Corrupt
        | Some (Torn | Reset | Stall | Exn | Mix) -> `Pass)

(* The injection log, rendered site#ordinal:kind and sorted per site —
   the replayable fingerprint of a campaign.  Two runs with the same
   spec and the same per-site operation sequences produce byte-equal
   logs. *)
let log t =
  Mutex.lock t.lock;
  let inj = t.injections in
  Mutex.unlock t.lock;
  List.map
    (fun { site; ordinal; fired } ->
      Printf.sprintf "%s#%d:%s" site ordinal fired)
    (List.sort
       (fun a b ->
         match compare a.site b.site with
         | 0 -> compare a.ordinal b.ordinal
         | c -> c)
       inj)
