(* The serving workloads: a long-lived budgetbuf serve driven over its
   socket with Serve.Client.  An op is one admit followed by its
   release, in a closed loop over [connections] client threads. *)

module P = Serve.Protocol
module C = Serve.Client

let connections = 2

(* Every run checks and digests the mappings of the first [prefix]
   requests, which each run completes whatever its length. *)
let prefix = 200

type admitted = { hit : bool; mapping : string; certificate : string; rounded : float }

type reply = {
  index : int;
  latency_s : float;  (** admit sent to release answered *)
  admit_s : float;
  release_s : float;
  result : (admitted, string) result;
}

let socket (ctx : Oneshot.ctx) = Filename.concat ctx.dir "serve.sock"

let no_retry = { C.default_backoff with C.retries = 0 }

let ping sock =
  match C.connect ~backoff:no_retry sock with
  | Error _ -> false
  | Ok c ->
    Fun.protect
      ~finally:(fun () -> C.close c)
      (fun () ->
        match C.roundtrip c P.Ping with
        | Ok (P.Ready { state = P.Serving }) -> true
        | _ -> false)

(* Bounds the memo cache, so the server's memory does not grow with
   the number of ops a run gets through.  Repeats only reach back 32
   instances, so the bound never turns a hit into a miss. *)
let cache_max = 256

(* Servers not yet stopped, killed at exit should the benchmark stop
   early. *)
let live = ref []

let forget pid = live := List.filter (( <> ) pid) !live

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          try
            Unix.kill pid Sys.sigkill;
            ignore (Proc.wait4 pid)
          with Unix.Unix_error _ -> ())
        !live)

(* Starts serve on a fresh cache journal and waits until ping answers
   [serving]. *)
let start (ctx : Oneshot.ctx) ~isolate ?trace () =
  let sock = socket ctx and cache = Filename.concat ctx.dir "cache.journal" in
  List.iter (fun f -> try Sys.remove f with Sys_error _ -> ()) [ sock; cache ];
  let args =
    [ "serve"; "--socket"; sock; "--cache"; cache; "--cache-max"; string_of_int cache_max ]
    @ (if isolate then [ "--isolate"; "1" ] else [])
    @ match trace with Some f -> [ "--trace"; f ] | None -> []
  in
  let pid =
    Proc.spawn ~exe:ctx.exe ~env:ctx.env ~out:(Filename.concat ctx.dir "serve.log") args
  in
  live := pid :: !live;
  let give_up = Proc.now () +. 30.0 in
  let rec wait () =
    if ping sock then Ok pid
    else if Proc.now () > give_up then begin
      Unix.kill pid Sys.sigkill;
      ignore (Proc.wait4 pid);
      forget pid;
      Error "serve never answered ping with serving"
    end
    else
      match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ ->
        Unix.sleepf 0.005;
        wait ()
      | _ ->
        forget pid;
        Error "serve exited during start-up"
  in
  wait ()

(* Asks the server to drain and waits for it to exit. *)
let stop (ctx : Oneshot.ctx) pid =
  let bye =
    match C.connect ~backoff:no_retry (socket ctx) with
    | Error _ -> false
    | Ok c ->
      let r = C.roundtrip c P.Shutdown in
      C.close c;
      r = Ok P.Bye
  in
  if not bye then Unix.kill pid Sys.sigterm;
  let code, _ = Proc.wait4 pid in
  forget pid;
  code

let describe = function
  | P.Rejected { reason; _ }
  | P.Unsat { reason; _ }
  | P.Late { reason; _ }
  | P.Failed { reason; _ }
  | P.Poisoned { reason; _ }
  | P.Refused { reason } ->
    reason
  | r -> P.status_of_response r

(* One admit then its release on [conn], reconnecting after a transport
   error so one broken connection fails one op, not the rest. *)
let op sock conn index (req : Inputs.request) =
  let id = Printf.sprintf "j%d" index in
  let roundtrip request =
    match !conn with
    | None -> (Error "not connected", 0.0)
    | Some c ->
      let t0 = Proc.now () in
      let r = C.roundtrip c request in
      let dt = Proc.now () -. t0 in
      (match r with
      | Error _ ->
        C.close c;
        conn := Result.to_option (C.connect ~backoff:no_retry sock)
      | Ok _ -> ());
      (r, dt)
  in
  let t0 = Proc.now () in
  let finish ?(release_s = 0.0) admit_s result =
    { index; latency_s = Proc.now () -. t0; admit_s; release_s; result }
  in
  match
    roundtrip (P.Admit { id; config = req.config; deadline_s = None; fault = None; retry = false })
  with
  | Ok (P.Admitted a), admit_s when a.id = id -> (
    let admitted =
      {
        hit = a.cache = `Hit;
        mapping = a.mapping;
        certificate = a.certificate;
        rounded = a.rounded_objective;
      }
    in
    match roundtrip (P.Release { id }) with
    | Ok (P.Released { found = true; _ }), release_s ->
      finish ~release_s admit_s (Ok admitted)
    | Ok r, release_s -> finish ~release_s admit_s (Error ("release: " ^ describe r))
    | Error e, release_s -> finish ~release_s admit_s (Error ("release: " ^ e)))
  | Ok r, admit_s -> finish admit_s (Error (P.status_of_response r ^ ": " ^ describe r))
  | Error e, admit_s -> finish admit_s (Error e)

(* Closed loop: each client takes the next request index as soon as its
   previous op completed.  Stops taking work at [until], but not before
   the first [min_ops] requests are taken. *)
let drive sock (stream : Inputs.request array) ~min_ops ~until =
  let n = Array.length stream in
  let next = Atomic.make 0 in
  let replies = Array.make n None in
  let client () =
    let conn = ref (Result.to_option (C.connect ~backoff:no_retry sock)) in
    let rec loop () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n && (i < min_ops || Proc.now () < until) then begin
        replies.(i) <- Some (op sock conn i stream.(i));
        loop ()
      end
    in
    loop ();
    Option.iter C.close !conn
  in
  List.iter Thread.join (List.init connections (fun _ -> Thread.create client ()));
  List.filter_map Fun.id (Array.to_list replies)

let warm_up sock =
  let conn = ref (Result.to_option (C.connect ~backoff:no_retry sock)) in
  let r = op sock conn (-1) { Inputs.instance = -1; config = Inputs.warm_up_config () } in
  Option.iter C.close !conn;
  r.result

let stream_length ~seconds = 1000 + (400 * int_of_float (Float.ceil seconds))

(* Set-up: generate the request list, start the server until it
   answers ping, warm up with one admit and release. *)
let setup ctx ~isolate ~seed ~seconds ?trace () =
  Proc.remove_tree ctx.Oneshot.dir;
  Proc.mkdir_p ctx.dir;
  let stream = Inputs.admit_stream ~seed ~count:(stream_length ~seconds) in
  match start ctx ~isolate ?trace () with
  | Error e -> Error e
  | Ok pid -> (
    match warm_up (socket ctx) with
    | Ok _ -> Ok (stream, pid)
    | Error e ->
      ignore (stop ctx pid);
      Error ("warm-up admit: " ^ e))

(* Checks every reply, and digests and totals the first [prefix]. *)
let summarize (stream : Inputs.request array) replies ~elapsed ~setups ~rss_mb =
  let failures =
    List.filter_map
      (fun r ->
        match r.result with
        | Error e -> Some (Printf.sprintf "j%d: %s" r.index e)
        | Ok a when not (Check.exact_certificate a.certificate) ->
          Some (Printf.sprintf "j%d: certificate %s" r.index a.certificate)
        | Ok _ -> None)
      replies
  in
  let first = Hashtbl.create 256 and problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  List.iter
    (fun r ->
      match r.result with
      | Error _ -> ()
      | Ok a -> (
        let inst = stream.(r.index).instance in
        match Hashtbl.find_opt first inst with
        | None -> Hashtbl.add first inst a
        | Some b ->
          if b.mapping <> a.mapping then
            problem "instance %d: reply j%d carries a different mapping than an earlier reply"
              inst r.index))
    replies;
  let config = Hashtbl.create 256 and checked = Hashtbl.create 256 in
  Array.iter (fun (q : Inputs.request) -> Hashtbl.replace config q.instance q.config) stream;
  Hashtbl.iter
    (fun inst (a : admitted) ->
      let cfg = Taskgraph.Parse.config_of_string (Hashtbl.find config inst) in
      match Check.mapping cfg a.mapping with
      | Error e -> problem "instance %d: %s" inst e
      | Ok m ->
        if not (Check.close_to m.objective a.rounded) then
          problem "instance %d: reply objective %g, mapping gives %g" inst a.rounded
            m.objective;
        Hashtbl.replace checked inst m)
    first;
  let in_prefix = List.filter (fun r -> r.index < prefix) replies in
  let prefix_mappings =
    List.filter_map
      (fun r -> Hashtbl.find_opt checked stream.(r.index).instance)
      in_prefix
  in
  if List.length prefix_mappings < min prefix (Array.length stream) then
    problem "only %d of the first %d requests returned a mapping"
      (List.length prefix_mappings) prefix;
  {
    Outcome.attempted = List.length replies;
    failed = List.length failures;
    failures;
    latencies_ms = List.map (fun r -> 1000.0 *. r.latency_s) replies;
    op_ms = [];
    elapsed_s = elapsed;
    setups_s = setups;
    peak_rss_mb = rss_mb;
    containers_total =
      Some (List.fold_left (fun a (m : Check.mapping) -> a + m.containers) 0 prefix_mappings);
    objective_total =
      Some (List.fold_left (fun a (m : Check.mapping) -> a +. m.objective) 0.0 prefix_mappings);
    digest =
      Check.digest
        (List.sort_uniq compare
           (List.map
              (fun r ->
                let inst = stream.(r.index).instance in
                ( string_of_int inst,
                  match Hashtbl.find_opt checked inst with
                  | Some m -> Digest.to_hex (Digest.string m.text)
                  | None -> "failed" ))
              in_prefix));
    problems = List.rev !problems;
  }
