(* The admission server (docs/serving.md): the wire codec, the typed
   protocol, the bounded admission queue, the crash-safe memo cache and
   the server itself, exercised in-process over a real Unix socket.

   The qcheck half pins the cache key's contract: the canonical form is
   invariant under every presentation freedom of the concrete syntax
   (declaration order, decimal float spellings) and sensitive to every
   semantic field.  The server half covers the three robustness
   mechanisms end to end — backpressure is cram-tested (it needs load),
   but deadlines, fault recovery, admission control and crash/restart
   cache recovery are all deterministic enough to assert here. *)

module Json = Obs.Json
module Wire = Serve.Wire
module Protocol = Serve.Protocol
module Bounded = Serve.Bounded
module Cache = Serve.Cache
module Server = Serve.Server
module Client = Serve.Client
module Chaos = Serve.Chaos
module Config = Taskgraph.Config
module Parse = Taskgraph.Parse

let check_string = Alcotest.(check string)
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let cli_exe = "../bin/budgetbuf_cli.exe"

(* ------------------------------------------------------------------ *)
(* Wire codec                                                          *)
(* ------------------------------------------------------------------ *)

let test_wire_roundtrip () =
  let obj =
    [
      ("op", Json.String "admit");
      ("id", Json.String "j\"1\n\\x");
      ("deadline_s", Json.Number 0.1);
      ("n", Json.Number 42.0);
      ("flag", Json.Bool true);
    ]
  in
  let line = Json.render obj in
  (match Json.parse line with
  | Ok obj' ->
    check_bool "objects equal" true (obj = obj');
    check_string "string field" "j\"1\n\\x"
      (Option.get (Json.str obj' "id"));
    check_int "int field" 42 (Option.get (Json.int obj' "n"));
    check_bool "bool field" true (Option.get (Json.bool obj' "flag"))
  | Error e -> Alcotest.failf "parse failed: %s" e);
  (* %.17g floats survive bit-exactly. *)
  let f = 0.30000000000000004 in
  match Json.parse (Json.render [ ("x", Json.Number f) ]) with
  | Ok o ->
    check_bool "float bit-exact" true (Option.get (Json.number o "x") = f)
  | Error e -> Alcotest.failf "parse failed: %s" e

let test_wire_rejects () =
  let bad line =
    match Json.parse line with
    | Ok _ -> Alcotest.failf "accepted %S" line
    | Error _ -> ()
  in
  bad "{\"a\":{\"b\":1}}";
  bad "{\"a\":null}";
  bad "{\"a\":1,\"a\":2}";
  bad "{\"a\":1} trailing";
  bad "{\"a\":[1]}";
  bad "not json";
  (match Json.render [ ("x", Json.Number Float.nan) ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "nan must be rejected");
  (* Wrong-typed accessors answer None, not garbage. *)
  match Json.parse "{\"a\":1.5}" with
  | Ok o ->
    check_bool "not a string" true (Json.str o "a" = None);
    check_bool "not integral" true (Json.int o "a" = None)
  | Error e -> Alcotest.failf "parse failed: %s" e

(* ------------------------------------------------------------------ *)
(* Framer: frames are a pure function of the byte sequence            *)
(* ------------------------------------------------------------------ *)

(* Unit cases: CRLF stripping, residue across feeds, and every 2-way
   split of a real rendered request line delivering the identical
   frame. *)
let test_framer_units () =
  let fr = Wire.Framer.create () in
  Wire.Framer.feed fr "ab\r\ncd";
  check_bool "crlf frame" true
    (Wire.Framer.next fr = Some (Wire.Framer.Frame "ab"));
  check_bool "tail is not a frame" true (Wire.Framer.next fr = None);
  check_string "residue" "cd" (Wire.Framer.residue fr);
  Wire.Framer.feed fr "\n";
  check_bool "residue completes" true
    (Wire.Framer.next fr = Some (Wire.Framer.Frame "cd"));
  let line =
    Protocol.request_to_line
      (Protocol.Admit
         {
           id = "j\"1";
           config = "granularity 1\n";
           deadline_s = Some 0.5;
           fault = None;
           retry = true;
         })
  in
  let wire = line ^ "\n" in
  for i = 0 to String.length wire do
    let fr = Wire.Framer.create () in
    Wire.Framer.feed fr (String.sub wire 0 i);
    Wire.Framer.feed fr (String.sub wire i (String.length wire - i));
    (match Wire.Framer.next fr with
    | Some (Wire.Framer.Frame got) when got = line -> ()
    | Some (Wire.Framer.Frame got) -> Alcotest.failf "split %d mangled: %S" i got
    | Some Wire.Framer.Oversized -> Alcotest.failf "split %d oversized" i
    | None -> Alcotest.failf "split %d lost the frame" i);
    check_string "no leftover" "" (Wire.Framer.residue fr)
  done

(* Adversarial chunking: any split of the byte stream — one byte at a
   time, mid-frame, anywhere — delivers exactly the original frames in
   order, and an unterminated tail is residue, never a frame. *)
let prop_framer_chunking seed =
  let rng = Workloads.Rng.create (Int64.of_int (seed + 7919)) in
  let alphabet = [| 'a'; 'z'; '{'; '}'; '"'; '\\'; ' '; ':'; ','; '0' |] in
  let piece () =
    String.init
      (Workloads.Rng.int rng ~bound:12)
      (fun _ -> alphabet.(Workloads.Rng.int rng ~bound:(Array.length alphabet)))
  in
  let frames = List.init (Workloads.Rng.int rng ~bound:7) (fun _ -> piece ()) in
  let tail = piece () in
  let stream =
    String.concat "" (List.map (fun f -> f ^ "\n") frames) ^ tail
  in
  let fr = Wire.Framer.create () in
  let got = ref [] in
  let rec drain () =
    match Wire.Framer.next fr with
    | Some (Wire.Framer.Frame f) ->
      got := f :: !got;
      drain ()
    | Some Wire.Framer.Oversized -> drain ()
    | None -> ()
  in
  let n = String.length stream in
  let pos = ref 0 in
  while !pos < n do
    let k = 1 + Workloads.Rng.int rng ~bound:(min 5 (n - !pos)) in
    Wire.Framer.feed fr (String.sub stream !pos k);
    pos := !pos + k;
    (* Interleave draining with feeding: frame boundaries must not
       depend on when the reader drains. *)
    if Workloads.Rng.int rng ~bound:2 = 0 then drain ()
  done;
  drain ();
  List.rev !got = frames && Wire.Framer.residue fr = tail

let qcheck_framer_chunking =
  QCheck.Test.make ~count:500
    ~name:"framer invariant under adversarial chunking" QCheck.small_nat
    prop_framer_chunking

(* Max-frame bound: an oversized frame yields exactly one [Oversized]
   item, buffers at most max_frame + one chunk, and the next frame is
   delivered intact. *)
let test_framer_max_frame () =
  let fr = Wire.Framer.create ~max_frame:8 () in
  Wire.Framer.feed fr "0123456789\nab\n";
  check_bool "oversized" true (Wire.Framer.next fr = Some Wire.Framer.Oversized);
  check_bool "next frame intact" true
    (Wire.Framer.next fr = Some (Wire.Framer.Frame "ab"));
  (* Exactly max_frame bytes is still a frame. *)
  let fr = Wire.Framer.create ~max_frame:8 () in
  Wire.Framer.feed fr "01234567\n";
  check_bool "at the bound" true
    (Wire.Framer.next fr = Some (Wire.Framer.Frame "01234567"));
  (* One over the bound is not. *)
  let fr = Wire.Framer.create ~max_frame:8 () in
  Wire.Framer.feed fr "012345678\n";
  check_bool "over the bound" true
    (Wire.Framer.next fr = Some Wire.Framer.Oversized);
  (* Dropping spans feeds: the payload arrives in many chunks, is
     never buffered, and still costs exactly one Oversized. *)
  let fr = Wire.Framer.create ~max_frame:4 () in
  Wire.Framer.feed fr "aaaaaa";
  check_bool "dropping starts" true
    (Wire.Framer.next fr = Some Wire.Framer.Oversized);
  check_string "no residue while dropping" "" (Wire.Framer.residue fr);
  Wire.Framer.feed fr "bbbb";
  check_bool "still dropping, no second item" true (Wire.Framer.next fr = None);
  Wire.Framer.feed fr "\nok\n";
  check_bool "frame after the drop" true
    (Wire.Framer.next fr = Some (Wire.Framer.Frame "ok"));
  check_bool "bad bound" true
    (match Wire.Framer.create ~max_frame:0 () with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* The item sequence (frames and oversized markers alike) is invariant
   under chunking, also around the max-frame boundary.  The reference
   sequence is computed from a single whole-stream feed. *)
let prop_framer_oversized_chunking seed =
  let rng = Workloads.Rng.create (Int64.of_int (seed + 104729)) in
  let max_frame = 4 + Workloads.Rng.int rng ~bound:6 in
  let piece () =
    String.make (Workloads.Rng.int rng ~bound:(2 * max_frame)) 'x'
  in
  let frames = List.init (Workloads.Rng.int rng ~bound:6) (fun _ -> piece ()) in
  let stream = String.concat "" (List.map (fun f -> f ^ "\n") frames) in
  let drain_all fr =
    let rec go acc =
      match Wire.Framer.next fr with
      | Some item -> go (item :: acc)
      | None -> List.rev acc
    in
    go []
  in
  let reference =
    let fr = Wire.Framer.create ~max_frame () in
    Wire.Framer.feed fr stream;
    drain_all fr
  in
  let fr = Wire.Framer.create ~max_frame () in
  let got = ref [] in
  let n = String.length stream in
  let pos = ref 0 in
  while !pos < n do
    let k = 1 + Workloads.Rng.int rng ~bound:(min 5 (n - !pos)) in
    Wire.Framer.feed fr (String.sub stream !pos k);
    pos := !pos + k;
    got := !got @ drain_all fr
  done;
  !got = reference

let qcheck_framer_oversized_chunking =
  QCheck.Test.make ~count:500
    ~name:"oversized items invariant under chunking" QCheck.small_nat
    prop_framer_oversized_chunking

(* ------------------------------------------------------------------ *)
(* Protocol round trips                                                *)
(* ------------------------------------------------------------------ *)

let t1_solved =
  {
    Protocol.mapping = "budget wa 4\nbudget wb 4\ncapacity bab 10\n";
    certificate = "ok (exact, 4 start times)";
    objective = 18.25;
    rounded_objective = 18.5;
  }

let roundtrip_request r =
  match Protocol.request_of_line (Protocol.request_to_line r) with
  | Ok r' -> check_bool "request round trip" true (r = r')
  | Error e -> Alcotest.failf "request decode failed: %s" e

let roundtrip_response r =
  match Protocol.response_of_line (Protocol.response_to_line r) with
  | Ok r' -> check_bool "response round trip" true (r = r')
  | Error e -> Alcotest.failf "response decode failed: %s" e

let test_protocol_roundtrip () =
  List.iter roundtrip_request
    [
      Protocol.Admit
        {
          id = "j1";
          config = "granularity 1\ntaskgraph t period 10\n";
          deadline_s = Some 0.25;
          fault = Some "stall,iter=3";
          retry = false;
        };
      Protocol.Admit
        { id = "j2"; config = "x"; deadline_s = None; fault = None;
          retry = true };
      Protocol.Release { id = "j1" };
      Protocol.Ping;
      Protocol.Stats;
      Protocol.Shutdown;
    ];
  List.iter roundtrip_response
    [
      Protocol.admitted ~id:"j1" ~cache:`Miss ~attempts:2 t1_solved;
      Protocol.Rejected { id = "j"; reason = "duplicate" };
      Protocol.Unsat { id = "j"; reason = "no assignment" };
      Protocol.Late { id = "j"; reason = "deadline expired" };
      Protocol.Failed
        {
          id = "j";
          cause = Protocol.Solver Budgetbuf.Mapping.Stalled;
          reason = "rungs exhausted";
        };
      Protocol.Poisoned
        { id = "j"; reason = "instance quarantined after 2 worker crashes" };
      Protocol.Overloaded { id = "j"; retry_after_s = 0.75 };
      Protocol.Released { id = "j"; found = true };
      Protocol.Released { id = "j"; found = false };
      Protocol.Ready { state = Protocol.Serving };
      Protocol.Ready { state = Protocol.Draining };
      Protocol.Stats_reply
        {
          Protocol.zero_stats with
          Protocol.admitted = 3;
          cache_hits = 2;
          live = 1;
        };
      Protocol.Refused { reason = "malformed request: nesting" };
      Protocol.Bye;
    ]

(* The verdict codecs: every reply a solve can give, with every
   failure cause, round-trips through the worker pipe and through the
   wire, and the two agree on the shared fields; a [failed] line whose
   cause is missing or unknown is refused by both. *)
let test_verdict_codecs () =
  let module W = Serve.Worker in
  let failed cause = W.Failed { cause; reason = "why" } in
  let replies =
    [
      W.Solved { solved = t1_solved; attempts = 2; solve_s = 0.125 };
      W.Unsat "no assignment";
      W.Late "deadline expired";
    ]
    @ List.map failed Protocol.causes
  in
  check_int "nine causes" 9 (List.length Protocol.causes);
  List.iter
    (fun reply ->
      let line = W.reply_line ~id:"j" reply in
      check_bool ("pipe round trip " ^ line) true
        (W.parse_reply line = Ok reply);
      let wire =
        match reply with
        | W.Solved { solved; attempts; _ } ->
          Protocol.admitted ~id:"j" ~cache:`Miss ~attempts solved
        | W.Unsat reason -> Protocol.Unsat { id = "j"; reason }
        | W.Late reason -> Protocol.Late { id = "j"; reason }
        | W.Failed { cause; reason } -> Protocol.Failed { id = "j"; cause; reason }
      in
      roundtrip_response wire)
    replies;
  check_string "wire failed line"
    "{\"status\":\"failed\",\"id\":\"j\",\"cause\":\"worker crashed\",\"reason\":\"why\"}"
    (Protocol.response_to_line
       (Protocol.Failed { id = "j"; cause = Protocol.Worker_crashed; reason = "why" }));
  check_string "pipe failed line"
    "{\"status\":\"failed\",\"id\":\"j\",\"cause\":\"handler\",\"reason\":\"why\"}"
    (W.reply_line ~id:"j" (failed Protocol.Handler));
  List.iter
    (fun (name, fields) ->
      let wire = "{\"status\":\"failed\",\"id\":\"j\"" ^ fields ^ "}" in
      check_bool ("wire refuses " ^ name) true
        (Result.is_error (Protocol.response_of_line wire));
      check_bool ("pipe refuses " ^ name) true
        (Result.is_error (W.parse_reply wire)))
    [
      ("missing cause", ",\"reason\":\"why\"");
      ("unknown cause", ",\"cause\":\"gremlins\",\"reason\":\"why\"");
      ("ill-typed cause", ",\"cause\":3,\"reason\":\"why\"");
    ]

let test_protocol_rejects () =
  let bad line =
    match Protocol.request_of_line line with
    | Ok _ -> Alcotest.failf "accepted %S" line
    | Error _ -> ()
  in
  bad "{\"op\":\"admit\"}";
  (* missing id/config *)
  bad "{\"op\":\"frobnicate\"}";
  bad "{\"id\":\"j\"}";
  (* missing op *)
  bad "{\"op\":\"admit\",\"id\":\"j\",\"config\":\"x\",\"deadline_s\":\"soon\"}"

(* A line the codec refuses is reported under the name of the message
   it should have been, with the codec's bare reason: a request, a
   reply, and each of the worker pipe's three frames — the last also
   end to end, through a real worker process. *)
let test_codec_errors_name_the_message () =
  let check name want got =
    Alcotest.(check (result reject string)) name (Error want) got
  in
  check "request" "malformed request: truncated"
    (Protocol.request_of_line "{\"op\":");
  check "reply" "malformed reply: bad value"
    (Protocol.response_of_line "{\"status\":}");
  check "worker hello" "malformed worker hello: expected '{'"
    (Serve.Worker.parse_hello "hello");
  check "worker task" "malformed task: bad value"
    (Serve.Worker.parse_task "{\"id\":\"t\",\"config\":}");
  check "worker reply" "malformed worker reply: duplicate key"
    (Serve.Worker.parse_reply "{\"status\":\"late\",\"status\":\"late\"}");
  let from_worker, to_worker =
    Unix.open_process_args cli_exe [| cli_exe; "worker" |]
  in
  output_string to_worker "{\"id\":\"t\",\"config\":}\n";
  close_out to_worker;
  ignore (input_line from_worker);
  let reply = input_line from_worker in
  ignore (Unix.close_process (from_worker, to_worker));
  match Serve.Worker.parse_reply reply with
  | Ok (Serve.Worker.Failed { cause; reason }) ->
    check_string "worker process" "malformed task: bad value" reason;
    check_string "worker process cause" "exception" (Protocol.cause_name cause)
  | Ok _ | Error _ -> Alcotest.failf "worker answered %S" reply

(* Protocol versioning: ping and ready carry [Protocol.version]; a
   mismatched peer fails with one clean line, while a bare probe
   without the field still passes (it predates versioning). *)
let test_protocol_version () =
  let ping = Protocol.request_to_line Protocol.Ping in
  check_bool "ping carries v" true
    (match Json.parse ping with
    | Ok obj -> Json.int obj "v" = Some Protocol.version
    | Error _ -> false);
  (match Protocol.request_of_line "{\"op\":\"ping\"}" with
  | Ok Protocol.Ping -> ()
  | _ -> Alcotest.fail "bare ping probe must parse");
  (match Protocol.request_of_line "{\"op\":\"ping\",\"v\":99}" with
  | Error msg ->
    check_bool "mismatch names both versions" true
      (String.length msg > 0
      && msg
         = Printf.sprintf
             "protocol version mismatch: peer speaks v99, this build speaks \
              v%d" Protocol.version)
  | Ok _ -> Alcotest.fail "mismatched ping version must be refused");
  let ready = Protocol.response_to_line (Protocol.Ready { state = Protocol.Serving }) in
  check_bool "ready carries v" true
    (match Json.parse ready with
    | Ok obj -> Json.int obj "v" = Some Protocol.version
    | Error _ -> false);
  (match
     Protocol.response_of_line
       "{\"status\":\"ready\",\"state\":\"serving\",\"v\":99}"
   with
  | Error msg ->
    check_bool "server mismatch is clean" true
      (msg
      = Printf.sprintf
          "protocol version mismatch: server speaks v99, this build speaks v%d"
          Protocol.version)
  | Ok _ -> Alcotest.fail "mismatched ready version must be refused");
  (* Worker hello: same discipline on the pipe protocol. *)
  (match Serve.Worker.parse_hello "{\"ev\":\"hello\",\"v\":1}" with
  | Error msg ->
    check_bool "hello mismatch" true
      (msg
      = Printf.sprintf
          "protocol version mismatch: worker speaks v1, supervisor speaks v%d"
          Protocol.version)
  | Ok _ -> Alcotest.fail "stale worker hello must be refused");
  check_bool "hello carries the version only" true
    (Serve.Worker.hello_line ()
    = Printf.sprintf "{\"ev\":\"hello\",\"v\":%d}" Protocol.version);
  match Serve.Worker.parse_hello (Serve.Worker.hello_line ()) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "own hello refused: %s" e

(* ------------------------------------------------------------------ *)
(* Bounded queue                                                       *)
(* ------------------------------------------------------------------ *)

let test_bounded_backpressure () =
  let q = Bounded.create ~capacity:2 in
  check_bool "push 1" true (Bounded.try_push q 1 = `Ok);
  check_bool "push 2" true (Bounded.try_push q 2 = `Ok);
  check_bool "push 3 sheds" true (Bounded.try_push q 3 = `Full);
  check_int "length" 2 (Bounded.length q);
  check_bool "fifo 1" true (Bounded.pop_nowait q = Some 1);
  check_bool "room again" true (Bounded.try_push q 4 = `Ok);
  check_bool "fifo 2" true (Bounded.pop_nowait q = Some 2);
  check_bool "fifo 4" true (Bounded.pop_nowait q = Some 4);
  check_bool "empty" true (Bounded.pop_nowait q = None)

let test_bounded_close_drains () =
  let q = Bounded.create ~capacity:4 in
  ignore (Bounded.try_push q "a");
  ignore (Bounded.try_push q "b");
  Bounded.close q;
  check_bool "closed to pushes" true (Bounded.try_push q "c" = `Closed);
  check_bool "still pops a" true (Bounded.pop q = Some "a");
  check_bool "still pops b" true (Bounded.pop q = Some "b");
  check_bool "then None" true (Bounded.pop q = None)

let test_bounded_halt_discards () =
  let q = Bounded.create ~capacity:4 in
  ignore (Bounded.try_push q 1);
  ignore (Bounded.try_push q 2);
  let dropped = Bounded.halt q in
  check_int "dropped count" 2 (List.length dropped);
  check_bool "pop after halt" true (Bounded.pop q = None);
  check_bool "push after halt" true (Bounded.try_push q 3 = `Closed)

(* A blocked popper wakes up when an element arrives from another
   thread, and again when the queue closes. *)
let test_bounded_blocking_pop () =
  let q = Bounded.create ~capacity:1 in
  let got = ref [] in
  let th =
    Thread.create
      (fun () ->
        let rec go () =
          match Bounded.pop q with
          | Some x ->
            got := x :: !got;
            go ()
          | None -> ()
        in
        go ())
      ()
  in
  Thread.delay 0.02;
  ignore (Bounded.try_push q 7);
  Thread.delay 0.02;
  Bounded.close q;
  Thread.join th;
  check_bool "received" true (!got = [ 7 ])

(* Multi-domain stress: parallel producer domains race a draining
   consumer thread through a 4-slot queue.  Every item is accounted
   for exactly once, the bound is never exceeded, and each producer's
   items come out in its push order. *)
let bounded_stress ~halt_midway =
  let capacity = 4 and producers = 4 and per = 200 in
  let q = Bounded.create ~capacity in
  let popped = ref [] and over = ref false in
  let consumer =
    Thread.create
      (fun () ->
        let rec go () =
          match Bounded.pop q with
          | Some x ->
            if Bounded.length q > capacity then over := true;
            popped := x :: !popped;
            go ()
          | None -> ()
        in
        go ())
      ()
  in
  let doms =
    List.init producers (fun p ->
        Domain.spawn (fun () ->
            let pushed = ref 0 in
            (try
               for i = 0 to per - 1 do
                 let rec push () =
                   match Bounded.try_push q (p, i) with
                   | `Ok -> incr pushed
                   | `Full ->
                     Domain.cpu_relax ();
                     push ()
                   | `Closed -> raise Exit
                 in
                 push ()
               done
             with Exit -> ());
            !pushed))
  in
  let dropped =
    if halt_midway then begin
      Thread.delay 0.02;
      Bounded.halt q
    end
    else []
  in
  let pushed = List.map Domain.join doms in
  if not halt_midway then Bounded.close q;
  Thread.join consumer;
  let seen = List.rev !popped @ dropped in
  check_bool "bound respected" false !over;
  check_int "no item lost or duplicated"
    (List.fold_left ( + ) 0 pushed)
    (List.length seen);
  (* Per-producer FIFO: pops and then drops preserve queue order, which
     preserves each producer's push order. *)
  List.iteri
    (fun p pushed_p ->
      let mine = List.filter_map
          (fun (p', i) -> if p' = p then Some i else None)
          seen
      in
      check_bool
        (Printf.sprintf "producer %d fifo" p)
        true
        (mine = List.init pushed_p (fun i -> i)))
    pushed

let test_bounded_domains_drain () = bounded_stress ~halt_midway:false
let test_bounded_domains_halt () = bounded_stress ~halt_midway:true

(* ------------------------------------------------------------------ *)
(* Client backoff schedule                                             *)
(* ------------------------------------------------------------------ *)

let test_backoff_schedule () =
  let b = Client.default_backoff in
  for i = 0 to 9 do
    let d = Client.backoff_delay b i in
    check_bool "reproducible" true (d = Client.backoff_delay b i);
    let raw =
      Float.min b.Client.cap_s
        (b.Client.base_s *. (b.Client.multiplier ** float_of_int i))
    in
    check_bool "within jitter band" true
      (d >= 0.75 *. raw && d < 1.25 *. raw)
  done;
  (* The cap bounds every delay, so a long outage cannot produce
     minute-long sleeps. *)
  check_bool "capped" true
    (Client.backoff_delay b 40 <= 1.25 *. b.Client.cap_s);
  (* Different seeds desynchronise: some attempt draws a different
     jitter. *)
  let b2 = { b with Client.seed = 1 } in
  check_bool "seeds differ" true
    (List.exists
       (fun i -> Client.backoff_delay b i <> Client.backoff_delay b2 i)
       [ 0; 1; 2; 3; 4; 5; 6; 7 ])

(* ------------------------------------------------------------------ *)
(* Canonical keys: invariance and sensitivity                          *)
(* ------------------------------------------------------------------ *)

(* A chain instance rendered as concrete configuration text, with a
   controllable declaration order inside each entity class and a
   controllable respelling of every numeric token.  All grid values are
   short decimals that parse to the same float under any respelling
   below, so two renderings of the same tuple denote the same
   instance. *)
let chain_text ?(perm = fun l -> l) ?(respell = fun s -> s) ~granularity
    ~period ~wcets ~caps () =
  let n = Array.length wcets in
  let b = Buffer.create 512 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  line "granularity %s" (respell granularity);
  List.iter
    (fun s -> Buffer.add_string b (s ^ "\n"))
    (perm
       (List.init n (fun i ->
            Printf.sprintf "processor p%d replenishment %s overhead %s" i
              (respell "40") (respell "0"))));
  line "memory m capacity 1000";
  line "taskgraph t period %s" (respell period);
  List.iter
    (fun s -> Buffer.add_string b (s ^ "\n"))
    (perm
       (List.init n (fun i ->
            Printf.sprintf "  task w%d proc p%d wcet %s weight 1" i i
              (respell wcets.(i)))));
  List.iter
    (fun s -> Buffer.add_string b (s ^ "\n"))
    (perm
       (List.init (n - 1) (fun i ->
            Printf.sprintf
              "  buffer b%d from w%d to w%d memory m container 1 initial 0 \
               weight 1 max %d"
              i i (i + 1) caps.(i))));
  Buffer.contents b

let key_of_text text = Cache.canonical_key (Parse.config_of_string text)

(* "2" -> "2.000", "1.5" -> "1.5000": same value, different spelling. *)
let respell_zeros s =
  if String.contains s '.' then s ^ "000" else s ^ ".000"

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Workloads.Rng.int rng ~bound:(i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let random_instance seed =
  let rng = Workloads.Rng.create (Int64.of_int seed) in
  let n = 2 + Workloads.Rng.int rng ~bound:5 in
  let grid = [| "0.5"; "1"; "1.5"; "2"; "2.5" |] in
  let wcets =
    Array.init n (fun _ -> grid.(Workloads.Rng.int rng ~bound:5))
  in
  let caps = Array.init (max 1 (n - 1)) (fun _ -> 8 + Workloads.Rng.int rng ~bound:8) in
  let period = [| "8"; "10"; "12.5" |].(Workloads.Rng.int rng ~bound:3) in
  let granularity = [| "1"; "0.5" |].(Workloads.Rng.int rng ~bound:2) in
  (rng, n, granularity, period, wcets, caps)

let prop_key_invariant seed =
  let rng, _, granularity, period, wcets, caps = random_instance seed in
  let base = chain_text ~granularity ~period ~wcets ~caps () in
  let scrambled =
    chain_text
      ~perm:(fun l -> shuffle rng l)
      ~respell:respell_zeros ~granularity ~period ~wcets ~caps ()
  in
  String.equal (key_of_text base) (key_of_text scrambled)

let prop_key_sensitive seed =
  let rng, n, granularity, period, wcets, caps = random_instance seed in
  let base = key_of_text (chain_text ~granularity ~period ~wcets ~caps ()) in
  let variant =
    match Workloads.Rng.int rng ~bound:4 with
    | 0 ->
      let granularity = if granularity = "1" then "0.5" else "1" in
      chain_text ~granularity ~period ~wcets ~caps ()
    | 1 -> chain_text ~granularity ~period:(period ^ "1") ~wcets ~caps ()
    | 2 ->
      let wcets = Array.copy wcets in
      let i = Workloads.Rng.int rng ~bound:n in
      wcets.(i) <- (if wcets.(i) = "0.5" then "1" else "0.5");
      chain_text ~granularity ~period ~wcets ~caps ()
    | _ ->
      let caps = Array.copy caps in
      let i = Workloads.Rng.int rng ~bound:(Array.length caps) in
      caps.(i) <- caps.(i) + 1;
      chain_text ~granularity ~period ~wcets ~caps ()
  in
  not (String.equal base (key_of_text variant))

let qcheck_key_invariant =
  QCheck.Test.make ~count:200
    ~name:"canonical key invariant under order and spelling"
    QCheck.small_nat prop_key_invariant

let qcheck_key_sensitive =
  QCheck.Test.make ~count:200
    ~name:"canonical key sensitive to semantic perturbation"
    QCheck.small_nat prop_key_sensitive

let test_key_respelling_unit () =
  let k spelling =
    key_of_text
      (chain_text ~respell:spelling ~granularity:"1" ~period:"10"
         ~wcets:[| "1"; "4" |] ~caps:[| 10 |] ())
  in
  check_string "4 vs 4.000" (k (fun s -> s)) (k respell_zeros);
  check_string "digest is 8 hex" "8"
    (string_of_int (String.length (Cache.digest (k (fun s -> s)))))

(* ------------------------------------------------------------------ *)
(* Cache journal                                                       *)
(* ------------------------------------------------------------------ *)

let tmp_counter = ref 0

let tmp_path suffix =
  incr tmp_counter;
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "bb-serve-%d-%d-%s" (Unix.getpid ()) !tmp_counter suffix)

let rm path = try Sys.remove path with Sys_error _ -> ()

(* What the cache answers for [t1_solved]: a clean solve of no time. *)
let solved = Serve.Worker.Solved { solved = t1_solved; attempts = 1; solve_s = 0.0 }
let unsat = Serve.Worker.Unsat "no assignment satisfies the throughput"

let test_cache_store_reopen () =
  let path = tmp_path "cache" in
  rm path;
  (match Cache.open_ path with
  | Error e -> Alcotest.failf "open: %s" e
  | Ok t ->
    check_int "fresh cache empty" 0 (Cache.size t);
    Cache.store t ~key:"k1" solved;
    Cache.store t ~key:"k2" unsat;
    Cache.store t ~key:"k1" solved;
    (* idempotent *)
    check_int "two instances" 2 (Cache.size t);
    (* The cache alone decides what is a fact about the instance: a
       recovered solve is kept as a clean one, a timeout or a failure
       not at all. *)
    Cache.store t ~key:"k4"
      (Serve.Worker.Solved { solved = t1_solved; attempts = 3; solve_s = 0.5 });
    check_bool "a hit answers attempts = 1" true
      (Cache.find t ~key:"k4" = Some solved);
    Cache.store t ~key:"k5" (Serve.Worker.Late "deadline expired");
    Cache.store t ~key:"k6"
      (Serve.Worker.Failed
         { cause = Protocol.Solver Budgetbuf.Mapping.Stalled; reason = "r" });
    check_bool "late and failed not kept" true
      (Cache.find t ~key:"k5" = None && Cache.find t ~key:"k6" = None);
    check_int "three instances" 3 (Cache.size t);
    check_bool "find hit" true (Cache.find t ~key:"k1" = Some solved);
    check_bool "find miss" true (Cache.find t ~key:"k3" = None);
    Cache.close t);
  (match Cache.open_ path with
  | Error e -> Alcotest.failf "reopen: %s" e
  | Ok t ->
    check_int "replayed" 3 (Cache.size t);
    check_bool "solved survives byte-identically" true
      (Cache.find t ~key:"k1" = Some solved);
    check_bool "unsat survives" true (Cache.find t ~key:"k2" = Some unsat);
    Cache.close t);
  rm path

let test_cache_foreign_file () =
  let path = tmp_path "foreign" in
  let oc = open_out path in
  output_string oc "not a journal\n";
  close_out oc;
  (match Cache.open_ path with
  | Error _ -> ()
  | Ok t ->
    Cache.close t;
    Alcotest.fail "foreign file must be refused");
  rm path

let open_exn ?max_entries ?chaos path =
  match Cache.open_ ?max_entries ?chaos path with
  | Ok t -> t
  | Error e -> Alcotest.failf "open %s: %s" path e

let count_lines path =
  In_channel.with_open_text path (fun ic ->
      let n = ref 0 in
      (try
         while true do
           ignore (input_line ic);
           incr n
         done
       with End_of_file -> ());
      !n)

(* FIFO eviction bounds the table; once at least half the journal is
   dead lines, compaction rewrites it to exactly the live entries, so
   the on-disk size tracks the bound, not the history. *)
let test_cache_bounded_compaction () =
  let path = tmp_path "bounded" in
  rm path;
  let t = open_exn ~max_entries:2 path in
  List.iter
    (fun k -> Cache.store t ~key:k solved)
    [ "k1"; "k2"; "k3"; "k4"; "k5"; "k6" ];
  check_int "bounded to 2" 2 (Cache.size t);
  check_bool "oldest evicted" true (Cache.find t ~key:"k1" = None);
  check_bool "newest live" true (Cache.find t ~key:"k6" = Some solved);
  let s = Cache.stats t in
  check_int "every store journaled" 6 s.Cache.total_lines;
  check_bool "compacted at least once" true (s.Cache.compactions >= 1);
  check_int "journal holds only the live entries" 2 s.Cache.journal_lines;
  Cache.close t;
  (* Header plus one line per live entry — the file really is small. *)
  check_int "on-disk lines bounded" 3 (count_lines path);
  let t = open_exn ~max_entries:2 path in
  check_int "replays the bound" 2 (Cache.size t);
  check_bool "k5 survives" true (Cache.find t ~key:"k5" = Some solved);
  check_bool "k6 survives" true (Cache.find t ~key:"k6" = Some solved);
  Cache.close t;
  rm path

(* A corrupted interior line costs exactly the verdicts it touched:
   the damaged bytes land in the .quarantine sidecar, entries beyond
   the damage survive, and the journal is rewritten clean.  A stale
   compaction temporary left by a crash is swept on open. *)
let test_cache_quarantine_and_stale_tmp () =
  let path = tmp_path "quarantine" in
  rm path;
  rm (path ^ ".quarantine");
  let t = open_exn path in
  Cache.store t ~key:"k1" solved;
  Cache.store t ~key:"k2" solved;
  Cache.store t ~key:"k3" unsat;
  Cache.close t;
  (* A crash mid-compaction leaves a temporary behind. *)
  Out_channel.with_open_text (path ^ ".tmp") (fun oc ->
      Out_channel.output_string oc "half-written garbage");
  (* Flip a byte inside the middle entry (file is header, k1, k2, k3). *)
  let lines =
    In_channel.with_open_text path (fun ic ->
        let rec go acc =
          match input_line ic with
          | l -> go (l :: acc)
          | exception End_of_file -> List.rev acc
        in
        go [])
  in
  let corrupted =
    List.mapi
      (fun i l ->
        if i = 2 then (
          let b = Bytes.of_string l in
          Bytes.set b (Bytes.length b - 3) '#';
          Bytes.to_string b)
        else l)
      lines
  in
  Out_channel.with_open_text path (fun oc ->
      List.iter (fun l -> Out_channel.output_string oc (l ^ "\n")) corrupted);
  let t = open_exn path in
  check_bool "stale tmp swept" false (Sys.file_exists (path ^ ".tmp"));
  check_int "two entries survive" 2 (Cache.size t);
  check_bool "entry before the damage" true
    (Cache.find t ~key:"k1" = Some solved);
  check_bool "entry after the damage survives" true
    (Cache.find t ~key:"k3" = Some unsat);
  check_bool "damaged entry gone" true (Cache.find t ~key:"k2" = None);
  check_int "one line quarantined" 1 (Cache.stats t).Cache.quarantined;
  Cache.close t;
  check_int "sidecar holds the damaged line" 1
    (count_lines (path ^ ".quarantine"));
  (* The journal was rewritten clean: a re-open quarantines nothing. *)
  let t = open_exn path in
  check_int "clean replay" 2 (Cache.size t);
  check_int "nothing further quarantined" 0 (Cache.stats t).Cache.quarantined;
  Cache.close t;
  rm path;
  rm (path ^ ".quarantine")

(* The chaos I/O hooks: a failed journal write degrades durability but
   never service; a corrupted write is quarantined at the next open. *)
let test_cache_chaos_hooks () =
  let path = tmp_path "chaosio" in
  rm path;
  let t = open_exn ~chaos:(fun () -> `Fail) path in
  Cache.store t ~key:"k1" solved;
  check_bool "verdict still served" true (Cache.find t ~key:"k1" = Some solved);
  let s = Cache.stats t in
  check_int "write failure counted" 1 s.Cache.io_errors;
  check_int "nothing on disk" 0 s.Cache.journal_lines;
  Cache.close t;
  let t = open_exn path in
  check_int "not durable" 0 (Cache.size t);
  Cache.close t;
  rm path;
  let path = tmp_path "chaosio2" in
  rm path;
  rm (path ^ ".quarantine");
  let t = open_exn ~chaos:(fun () -> `Corrupt) path in
  Cache.store t ~key:"k1" solved;
  Cache.store t ~key:"k2" unsat;
  check_int "corrupt writes still serve" 2 (Cache.size t);
  Cache.close t;
  let t = open_exn path in
  check_int "both lines quarantined" 2 (Cache.stats t).Cache.quarantined;
  check_int "nothing replayed" 0 (Cache.size t);
  Cache.close t;
  rm path;
  rm (path ^ ".quarantine")

(* ------------------------------------------------------------------ *)
(* Server, in process                                                  *)
(* ------------------------------------------------------------------ *)

let t1_text () =
  Format.asprintf "%a" Config.pp (Workloads.Gen.paper_t1 ())

let t1_with_cap cap =
  let cfg = Workloads.Gen.paper_t1 () in
  Config.set_max_capacity cfg (Config.find_buffer cfg "bab") (Some cap);
  Format.asprintf "%a" Config.pp cfg

(* Replace the first occurrence of [sub] in [s]. *)
let replace ~sub ~by s =
  let n = String.length s and m = String.length sub in
  let rec find i =
    if i + m > n then None
    else if String.sub s i m = sub then Some i
    else find (i + 1)
  in
  match find 0 with
  | None -> s
  | Some i -> String.sub s 0 i ^ by ^ String.sub s (i + m) (n - i - m)

let start_server cfg =
  let result = ref (Error "server never ran") in
  let th = Thread.create (fun () -> result := Server.run cfg) () in
  (th, result)

let admit c ~id ?deadline_s ?fault config =
  match
    Client.roundtrip c
      (Protocol.Admit { id; config; deadline_s; fault; retry = false })
  with
  | Ok r -> r
  | Error e -> Alcotest.failf "admit %s: %s" id e

(* The Admitted payload, copied out of its inline record. *)
type admitted = {
  cache : [ `Hit | `Miss ];
  mapping : string;
  certificate : string;
  attempts : int;
}

let expect_admitted r =
  match r with
  | Protocol.Admitted { cache; mapping; certificate; attempts; _ } ->
    { cache; mapping; certificate; attempts }
  | r ->
    Alcotest.failf "expected admitted, got %s" (Protocol.status_of_response r)

let shutdown c =
  match Client.roundtrip c Protocol.Shutdown with
  | Ok Protocol.Bye -> ()
  | Ok r ->
    Alcotest.failf "expected bye, got %s" (Protocol.status_of_response r)
  | Error e -> Alcotest.failf "shutdown: %s" e

let test_server_admit_release_stats () =
  let sock = tmp_path "basic.sock" and cache = tmp_path "basic.cachej" in
  rm cache;
  let th, res =
    start_server
      {
        (Server.default_config ~socket_path:sock) with
        Server.cache_path = Some cache;
      }
  in
  (match
     Client.with_connection sock (fun c ->
         let a = expect_admitted (admit c ~id:"a" (t1_text ())) in
         check_bool "first solve is a miss" true (a.cache = `Miss);
         check_bool "mapping mentions budgets" true
           (String.length a.mapping > 0);
         check_bool "certificate is exact" true
           (String.length a.certificate > 0);
         (* Same semantic instance, fresh id: a cache hit, byte-identical. *)
         let b = expect_admitted (admit c ~id:"b" (t1_text ())) in
         check_bool "second solve is a hit" true (b.cache = `Hit);
         check_string "mapping byte-identical" a.mapping b.mapping;
         check_string "certificate byte-identical" a.certificate b.certificate;
         (* Duplicate live id is rejected by admission control. *)
         (match admit c ~id:"a" (t1_text ()) with
         | Protocol.Rejected _ -> ()
         | r ->
           Alcotest.failf "duplicate id: %s" (Protocol.status_of_response r));
         (match Client.roundtrip c (Protocol.Release { id = "a" }) with
         | Ok (Protocol.Released { found = true; _ }) -> ()
         | _ -> Alcotest.fail "release a");
         (match Client.roundtrip c (Protocol.Release { id = "zz" }) with
         | Ok (Protocol.Released { found = false; _ }) -> ()
         | _ -> Alcotest.fail "release unknown");
         (match Client.roundtrip c Protocol.Stats with
         | Ok (Protocol.Stats_reply s) ->
           check_int "admitted" 2 s.Protocol.admitted;
           check_int "rejected" 1 s.Protocol.rejected;
           (* The duplicate-id admit also hit the cache before
              admission control rejected it, hence 2 hits. *)
           check_int "hits" 2 s.Protocol.cache_hits;
           check_int "misses" 1 s.Protocol.cache_misses;
           check_int "released" 1 s.Protocol.released;
           check_int "live" 1 s.Protocol.live
         | _ -> Alcotest.fail "stats");
         shutdown c;
         Ok ())
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "client: %s" e);
  Thread.join th;
  (match !res with
  | Ok (Server.Shutdown_request, s) -> check_int "final admitted" 2 s.admitted
  | Ok (r, _) -> Alcotest.failf "stop reason: %s" (Server.describe r)
  | Error e -> Alcotest.failf "server: %s" e);
  rm cache

(* Admission control shares capacities across live jobs: a second job
   whose buffers exceed the remaining memory is rejected until the
   first releases. *)
let test_server_admission_capacity () =
  let sock = tmp_path "adm.sock" in
  let mem_text = replace ~sub:"capacity 1000" ~by:"capacity 15" (t1_text ()) in
  let th, res = start_server (Server.default_config ~socket_path:sock) in
  (match
     Client.with_connection sock (fun c ->
         ignore (expect_admitted (admit c ~id:"m1" mem_text));
         (match admit c ~id:"m2" mem_text with
         | Protocol.Rejected { reason; _ } ->
           check_bool "names the memory" true
             (String.length reason > 0
             && replace ~sub:"insufficient" ~by:"" reason <> reason)
         | r ->
           Alcotest.failf "expected rejected: %s"
             (Protocol.status_of_response r));
         (match Client.roundtrip c (Protocol.Release { id = "m1" }) with
         | Ok (Protocol.Released { found = true; _ }) -> ()
         | _ -> Alcotest.fail "release m1");
         ignore (expect_admitted (admit c ~id:"m2" mem_text));
         shutdown c;
         Ok ())
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "client: %s" e);
  Thread.join th;
  match !res with
  | Ok (Server.Shutdown_request, s) ->
    check_int "rejected once" 1 s.Protocol.rejected
  | Ok (r, _) -> Alcotest.failf "stop reason: %s" (Server.describe r)
  | Error e -> Alcotest.failf "server: %s" e

(* Deadlines and fault recovery: a stalled first attempt recovers on
   the next rung; a deliberately slow solve against a short deadline
   answers timed_out instead of hanging the socket. *)
let test_server_deadline_and_fault () =
  let sock = tmp_path "dl.sock" in
  let th, res = start_server (Server.default_config ~socket_path:sock) in
  (match
     Client.with_connection sock (fun c ->
         let a = expect_admitted (admit c ~id:"f" ~fault:"stall" (t1_text ())) in
         check_int "recovered on rung two" 2 a.attempts;
         (match
            admit c ~id:"d" ~deadline_s:0.2 ~fault:"slow" (t1_with_cap 11)
          with
         | Protocol.Late _ -> ()
         | r ->
           Alcotest.failf "expected timed_out: %s"
             (Protocol.status_of_response r));
         shutdown c;
         Ok ())
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "client: %s" e);
  Thread.join th;
  match !res with
  | Ok (Server.Shutdown_request, s) ->
    check_int "one timeout" 1 s.Protocol.timed_out
  | Ok (r, _) -> Alcotest.failf "stop reason: %s" (Server.describe r)
  | Error e -> Alcotest.failf "server: %s" e

(* Crash/restart recovery: a server killed abruptly after settling K
   admits leaves a journal from which a restarted server answers the
   same instances as byte-identical cache hits, without re-solving. *)
let test_server_restart_recovery () =
  let sock = tmp_path "crash.sock" and cache = tmp_path "crash.cachej" in
  rm cache;
  let texts = List.map t1_with_cap [ 10; 11; 12 ] in
  let th, res =
    start_server
      {
        (Server.default_config ~socket_path:sock) with
        Server.cache_path = Some cache;
        halt_after_admits = Some (List.length texts);
      }
  in
  let first =
    match
      Client.with_connection sock (fun c ->
          Ok
            (List.mapi
               (fun i text ->
                 let a =
                   expect_admitted (admit c ~id:(Printf.sprintf "a%d" i) text)
                 in
                 check_bool "first run misses" true (a.cache = `Miss);
                 (a.mapping, a.certificate))
               texts))
    with
    | Ok l -> l
    | Error e -> Alcotest.failf "first run: %s" e
  in
  Thread.join th;
  (match !res with
  | Ok (Server.Halted, _) -> ()
  | Ok (r, _) -> Alcotest.failf "expected halt: %s" (Server.describe r)
  | Error e -> Alcotest.failf "server A: %s" e);
  (* Restart on the same journal: every instance is a hit, and the
     mapping and certificate are byte-identical to the first run. *)
  let th, res =
    start_server
      {
        (Server.default_config ~socket_path:sock) with
        Server.cache_path = Some cache;
      }
  in
  (match
     Client.with_connection sock (fun c ->
         List.iteri
           (fun i text ->
             let a =
               expect_admitted (admit c ~id:(Printf.sprintf "b%d" i) text)
             in
             check_bool "restart hits" true (a.cache = `Hit);
             let mapping, certificate = List.nth first i in
             check_string "mapping survives the crash" mapping a.mapping;
             check_string "certificate survives the crash" certificate
               a.certificate)
           texts;
         shutdown c;
         Ok ())
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "second run: %s" e);
  Thread.join th;
  (match !res with
  | Ok (Server.Shutdown_request, s) ->
    check_int "all hits after restart" (List.length texts)
      s.Protocol.cache_hits;
    check_int "no re-solves" 0 s.Protocol.cache_misses
  | Ok (r, _) -> Alcotest.failf "stop reason: %s" (Server.describe r)
  | Error e -> Alcotest.failf "server B: %s" e);
  rm cache

(* Malformed lines are refused without killing the connection. *)
let test_server_refuses_malformed () =
  let sock = tmp_path "mal.sock" in
  let th, res = start_server (Server.default_config ~socket_path:sock) in
  (match
     Client.with_connection sock (fun c ->
         (* Reach under Protocol: send raw garbage through a bare
            socket write by abusing an unknown op. *)
         (match
            Client.roundtrip c
              (Protocol.Admit
                 { id = "x"; config = "not a config"; deadline_s = None;
                   fault = None; retry = false })
          with
         | Ok (Protocol.Refused _) -> ()
         | Ok r ->
           Alcotest.failf "expected refused: %s"
             (Protocol.status_of_response r)
         | Error e -> Alcotest.failf "roundtrip: %s" e);
         (* The connection still answers. *)
         (match Client.roundtrip c Protocol.Stats with
         | Ok (Protocol.Stats_reply s) -> check_int "refused" 1 s.refused
         | _ -> Alcotest.fail "stats after refusal");
         shutdown c;
         Ok ())
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "client: %s" e);
  Thread.join th;
  match !res with
  | Ok (Server.Shutdown_request, _) -> ()
  | Ok (r, _) -> Alcotest.failf "stop reason: %s" (Server.describe r)
  | Error e -> Alcotest.failf "server: %s" e

(* Ping is the load balancer's probe: answered instantly with the
   lifecycle state, counted, and never queued behind solves. *)
let test_server_ping_readiness () =
  let sock = tmp_path "ping.sock" in
  let th, res = start_server (Server.default_config ~socket_path:sock) in
  (match
     Client.with_connection sock (fun c ->
         (match Client.roundtrip c Protocol.Ping with
         | Ok (Protocol.Ready { state = Protocol.Serving }) -> ()
         | Ok r ->
           Alcotest.failf "expected serving: %s" (Protocol.status_of_response r)
         | Error e -> Alcotest.failf "ping: %s" e);
         (match Client.roundtrip c Protocol.Stats with
         | Ok (Protocol.Stats_reply s) -> check_int "pings counted" 1 s.pings
         | _ -> Alcotest.fail "stats after ping");
         shutdown c;
         Ok ())
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "client: %s" e);
  Thread.join th;
  match !res with
  | Ok (Server.Shutdown_request, s) -> check_int "final pings" 1 s.pings
  | Ok (r, _) -> Alcotest.failf "stop reason: %s" (Server.describe r)
  | Error e -> Alcotest.failf "server: %s" e

(* The watchdog reaps a solve stuck past its deadline: the client gets
   timed_out promptly (with the watchdog named in the reason), and the
   server keeps answering — the slot is reclaimed, not leaked. *)
let test_server_watchdog_reaps () =
  let sock = tmp_path "wd.sock" in
  let th, res =
    start_server
      {
        (Server.default_config ~socket_path:sock) with
        Server.watchdog_grace_s = Some 0.05;
      }
  in
  (match
     Client.with_connection sock (fun c ->
         (match
            admit c ~id:"stuck" ~deadline_s:0.15 ~fault:"slow"
              (t1_with_cap 11)
          with
         | Protocol.Late { reason; _ } ->
           check_bool "watchdog named" true
             (replace ~sub:"watchdog" ~by:"" reason <> reason)
         | r ->
           Alcotest.failf "expected timed_out: %s"
             (Protocol.status_of_response r));
         (* The pool slot comes back: a plain solve still answers. *)
         ignore (expect_admitted (admit c ~id:"after" (t1_text ())));
         shutdown c;
         Ok ())
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "client: %s" e);
  Thread.join th;
  match !res with
  | Ok (Server.Shutdown_request, s) ->
    check_int "one timeout" 1 s.Protocol.timed_out;
    check_int "one admit after" 1 s.Protocol.admitted
  | Ok (r, _) -> Alcotest.failf "stop reason: %s" (Server.describe r)
  | Error e -> Alcotest.failf "server: %s" e

(* With reconcile on, a connection that dies releases the admissions
   it owns: the id and its capacity come back without an explicit
   release, so a crashed client cannot leak the server full. *)
let test_server_reconcile_releases () =
  let sock = tmp_path "rec.sock" in
  let th, res =
    start_server
      {
        (Server.default_config ~socket_path:sock) with
        Server.reconcile = true;
      }
  in
  (match Client.connect sock with
  | Error e -> Alcotest.failf "connect: %s" e
  | Ok c ->
    ignore (expect_admitted (admit c ~id:"r1" (t1_text ())));
    (* Die without releasing. *)
    Client.close c);
  (* The reap runs when the server notices the EOF; poll briefly. *)
  let reaped = ref false in
  let polls = ref 0 in
  while (not !reaped) && !polls < 100 do
    incr polls;
    (match
       Client.with_connection sock (fun c -> Client.roundtrip c Protocol.Stats)
     with
    | Ok (Protocol.Stats_reply s) when s.Protocol.live = 0 ->
      check_int "released by reconcile" 1 s.Protocol.released;
      reaped := true
    | Ok _ -> Thread.delay 0.02
    | Error e -> Alcotest.failf "stats poll: %s" e);
  done;
  check_bool "crashed client reaped" true !reaped;
  (match
     Client.with_connection sock (fun c ->
         (* The id is free again. *)
         ignore (expect_admitted (admit c ~id:"r1" (t1_text ())));
         shutdown c;
         Ok ())
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "client 2: %s" e);
  Thread.join th;
  match !res with
  | Ok (Server.Shutdown_request, s) -> check_int "re-admitted" 2 s.admitted
  | Ok (r, _) -> Alcotest.failf "stop reason: %s" (Server.describe r)
  | Error e -> Alcotest.failf "server: %s" e

(* ------------------------------------------------------------------ *)
(* Chaos campaign                                                      *)
(* ------------------------------------------------------------------ *)

(* Drive a chaos-armed server through three rounds of admits with the
   resilient client: every request must reach a genuine, certified
   verdict through torn replies, dropped connections, handler
   exceptions and journal faults.  Returns the injection log and the
   final counters so the caller can assert determinism. *)
let run_chaos_campaign spec =
  let sock = tmp_path "chaos.sock" and cache = tmp_path "chaos.cachej" in
  rm cache;
  let chaos = Chaos.create spec in
  let th, res =
    start_server
      {
        (Server.default_config ~socket_path:sock) with
        Server.cache_path = Some cache;
        cache_max_entries = Some 4;
        reconcile = true;
        chaos = Some chaos;
      }
  in
  let texts = List.map t1_with_cap [ 10; 11; 12; 13 ] in
  let retry = { Client.default_retry with attempts = 8 } in
  let attempted = ref 0 and answered = ref 0 in
  for round = 0 to 2 do
    List.iteri
      (fun i text ->
        let id = Printf.sprintf "c%d-%d" round i in
        incr attempted;
        (match
           Client.submit ~retry ~socket:sock
             (Protocol.Admit
                {
                  id;
                  config = text;
                  deadline_s = None;
                  fault = None;
                  retry = false;
                })
         with
        | Ok (Protocol.Admitted { certificate; _ }) ->
          incr answered;
          check_bool "certified under chaos" true
            (String.length certificate > 1)
        | Ok r ->
          Alcotest.failf "campaign %s: %s" id (Protocol.status_of_response r)
        | Error e -> Alcotest.failf "campaign %s: %s" id e);
        match Client.submit ~retry ~socket:sock (Protocol.Release { id }) with
        | Ok (Protocol.Released _) -> ()
        | Ok r ->
          Alcotest.failf "release %s: %s" id (Protocol.status_of_response r)
        | Error e -> Alcotest.failf "release %s: %s" id e)
      texts
  done;
  (* Shut down through the chaos: an injected failure can eat the Bye,
     in which case the listener goes away — treat that as success. *)
  let rec shut tries =
    if tries = 0 then Alcotest.fail "chaos server never shut down"
    else
      match
        Client.with_connection
          ~backoff:{ Client.default_backoff with retries = 2 }
          sock
          (fun c -> Client.roundtrip c Protocol.Shutdown)
      with
      | Ok Protocol.Bye -> ()
      | Ok _ -> shut (tries - 1)
      | Error _ -> ()
  in
  shut 5;
  Thread.join th;
  let stats =
    match !res with
    | Ok (Server.Shutdown_request, s) -> s
    | Ok (r, _) -> Alcotest.failf "stop reason: %s" (Server.describe r)
    | Error e -> Alcotest.failf "chaos server: %s" e
  in
  check_int "every request answered" !attempted !answered;
  check_int "no leaked admissions" 0 stats.Protocol.live;
  rm cache;
  Chaos.log chaos

let test_server_chaos_campaign () =
  (* @runtest-chaos points BUDGETBUF_CHAOS at a different schedule; the
     default exercises every kind at one-in-3. *)
  let spec =
    match Chaos.of_env () with
    | Some s -> s
    | None -> { Chaos.skind = Chaos.Mix; every = 3; seed = 42 }
  in
  let log1 = run_chaos_campaign spec in
  let log2 = run_chaos_campaign spec in
  check_bool "chaos fired" true (log1 <> []);
  check_bool "same seed, byte-identical injections" true
    (List.equal String.equal log1 log2)

(* ------------------------------------------------------------------ *)
(* Process isolation: quarantine, supervisor, kill -9 recovery         *)
(* ------------------------------------------------------------------ *)

module Quarantine = Serve.Quarantine
module Supervisor = Serve.Supervisor
module Worker = Serve.Worker

(* The suite runs from _build/default/test/; the CLI binary — which
   doubles as the worker via the hidden [worker] mode — sits one
   directory over and is declared as a dune dependency. *)

let contains ~sub s = sub = "" || replace ~sub ~by:"" s <> s

let describe_outcome = function
  | Supervisor.Done r ->
    "done: "
    ^ (match r with
      | Worker.Solved _ -> "solved"
      | Worker.Unsat m -> "unsat " ^ m
      | Worker.Late m -> "late " ^ m
      | Worker.Failed { cause; reason } ->
        Printf.sprintf "failed (%s) %s" (Protocol.cause_name cause) reason)
  | Supervisor.Crashed reason -> "crashed: " ^ reason
  | Supervisor.Reaped -> "reaped"
  | Supervisor.Unavailable reason -> "unavailable: " ^ reason

let test_quarantine_counts_reopen () =
  let path = tmp_path "quar.j" in
  rm path;
  rm (path ^ ".quarantine");
  (match Quarantine.create ~path ~threshold:2 () with
  | Error e -> Alcotest.failf "open: %s" e
  | Ok q ->
    check_int "threshold echoed" 2 (Quarantine.threshold q);
    check_bool "clean key below threshold" true
      (Quarantine.poisoned q ~key:"qa" = None);
    check_int "first crash" 1 (Quarantine.note_crash q ~key:"qa" ~reason:"signal 9");
    check_bool "still below threshold" true
      (Quarantine.poisoned q ~key:"qa" = None);
    check_int "second crash" 2 (Quarantine.note_crash q ~key:"qa" ~reason:"signal 9");
    check_bool "poisoned at threshold" true
      (Quarantine.poisoned q ~key:"qa" = Some 2);
    check_int "other key independent" 1
      (Quarantine.note_crash q ~key:"qb" ~reason:"exit 2");
    let s = Quarantine.stats q in
    check_int "keys" 2 s.Quarantine.keys;
    check_int "poisoned keys" 1 s.Quarantine.poisoned;
    check_int "crashes" 3 s.Quarantine.crashes;
    Quarantine.close q);
  (* The journal replays: poison verdicts survive a restart. *)
  (match Quarantine.create ~path ~threshold:2 () with
  | Error e -> Alcotest.failf "reopen: %s" e
  | Ok q ->
    check_bool "poison survives reopen" true
      (Quarantine.poisoned q ~key:"qa" = Some 2);
    check_int "sub-threshold count survives" 1 (Quarantine.crashes q ~key:"qb");
    check_bool "qb still clean" true (Quarantine.poisoned q ~key:"qb" = None);
    Quarantine.close q);
  check_bool "threshold validated" true
    (match Quarantine.create ~threshold:0 () with
    | exception Invalid_argument _ -> true
    | _ -> false);
  rm path

let test_quarantine_salvage () =
  let path = tmp_path "quar2.j" in
  rm path;
  rm (path ^ ".quarantine");
  (match Quarantine.create ~path ~threshold:2 () with
  | Error e -> Alcotest.failf "open: %s" e
  | Ok q ->
    ignore (Quarantine.note_crash q ~key:"qa" ~reason:"signal 9");
    ignore (Quarantine.note_crash q ~key:"qb" ~reason:"signal 9");
    ignore (Quarantine.note_crash q ~key:"qb" ~reason:"signal 9");
    Quarantine.close q);
  (* Damage the first record's payload: its CRC no longer matches, so
     the reopen must salvage that one line to the sidecar and keep the
     two records behind it. *)
  let text = In_channel.with_open_text path In_channel.input_all in
  let mangled = replace ~sub:{|crash "qa"|} ~by:{|crXsh "qa"|} text in
  check_bool "fixture line found" true (mangled <> text);
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc mangled);
  (match Quarantine.create ~path ~threshold:2 () with
  | Error e -> Alcotest.failf "reopen damaged: %s" e
  | Ok q ->
    let s = Quarantine.stats q in
    check_int "one line salvaged" 1 s.Quarantine.salvaged;
    check_int "entries behind damage kept" 2 s.Quarantine.crashes;
    check_bool "qb still poisoned" true (Quarantine.poisoned q ~key:"qb" = Some 2);
    check_bool "qa count lost with its line" true
      (Quarantine.crashes q ~key:"qa" = 0);
    Quarantine.close q);
  check_bool "sidecar holds the damaged line" true
    (Sys.file_exists (path ^ ".quarantine"));
  rm path;
  rm (path ^ ".quarantine")

let supervisor_config () =
  { (Supervisor.default_config ~exe:cli_exe) with Supervisor.seed = 7 }

let good_task id =
  {
    Worker.task_id = id;
    task_config = t1_text ();
    task_fault = None;
    task_deadline_s = None;
  }

let test_supervisor_solve_crash_respawn () =
  let sup = Supervisor.create (supervisor_config ()) in
  (match Supervisor.solve sup (good_task "g1") with
  | Supervisor.Done (Worker.Solved r) ->
    check_bool "worker returns a mapping" true (String.length r.solved.mapping > 0);
    check_bool "worker returns a certificate" true
      (String.length r.solved.certificate > 0)
  | o -> Alcotest.failf "good solve: %s" (describe_outcome o));
  (* A crash fault kills the worker mid-solve; the supervisor survives
     and reports the signal. *)
  (match
     Supervisor.solve sup
       { (good_task "c1") with Worker.task_fault = Some "crash" }
   with
  | Supervisor.Crashed reason -> check_string "crash reason" "signal 9" reason
  | o -> Alcotest.failf "crash solve: %s" (describe_outcome o));
  (* The pool respawns: the next solve gets a fresh worker. *)
  (match Supervisor.solve sup (good_task "g2") with
  | Supervisor.Done (Worker.Solved _) -> ()
  | o -> Alcotest.failf "solve after crash: %s" (describe_outcome o));
  let c = Supervisor.counters sup in
  check_int "two workers spawned" 2 c.Supervisor.spawned;
  check_int "one worker crashed" 1 c.Supervisor.crashed;
  check_int "none reaped" 0 c.Supervisor.reaped;
  Supervisor.shutdown sup

(* The oom fault inside a 512 MB address-space box: the worker answers
   a good task, then allocates until the runtime gives up (uncaught
   [Out_of_memory], exit 2), and the pool respawns for the next task.
   (Near 256 MB the OCaml 5 runtime cannot reserve its minor heaps and
   a worker dies before its hello; docs/serving.md.) *)
let test_supervisor_oom_respawn () =
  let sup =
    Supervisor.create
      { (supervisor_config ()) with Supervisor.rlimit_mem_mb = Some 512 }
  in
  let good id =
    match Supervisor.solve sup (good_task id) with
    | Supervisor.Done (Worker.Solved _) -> ()
    | o -> Alcotest.failf "good solve %s: %s" id (describe_outcome o)
  in
  good "m1";
  (match
     Supervisor.solve sup { (good_task "o1") with Worker.task_fault = Some "oom" }
   with
  | Supervisor.Crashed reason -> check_string "oom reason" "exit 2" reason
  | o -> Alcotest.failf "oom solve: %s" (describe_outcome o));
  good "m2";
  let c = Supervisor.counters sup in
  check_int "two workers spawned" 2 c.Supervisor.spawned;
  check_int "one worker crashed" 1 c.Supervisor.crashed;
  Supervisor.shutdown sup

let test_supervisor_reaps_hang () =
  let sup = Supervisor.create (supervisor_config ()) in
  (match
     Supervisor.solve sup
       {
         (good_task "h1") with
        Worker.task_fault = Some "hang";
        task_deadline_s = Some 0.2;
      }
   with
  | Supervisor.Reaped -> ()
  | o -> Alcotest.failf "hung solve: %s" (describe_outcome o));
  (* The reaped slot respawns like any crash. *)
  (match Supervisor.solve sup (good_task "h2") with
  | Supervisor.Done (Worker.Solved _) -> ()
  | o -> Alcotest.failf "solve after reap: %s" (describe_outcome o));
  let c = Supervisor.counters sup in
  check_int "one reap" 1 c.Supervisor.reaped;
  check_int "reap counts as a crash" 1 c.Supervisor.crashed;
  Supervisor.shutdown sup

(* A worker killed by a signal is reported by its OS number: SIGQUIT
   (OCaml's [Sys.sigquit] is -9) must read "signal 3", never the
   "signal 9" of a SIGKILL.  The hung worker is found by the pid its
   spawn logs and quit from a second thread while the solve waits. *)
let test_supervisor_reports_os_signal () =
  let quit_spawned line =
    match Scanf.sscanf_opt line "worker %d spawned" Fun.id with
    | Some pid ->
      ignore
        (Thread.create
           (fun () ->
             Thread.delay 0.2;
             try Unix.kill pid Sys.sigquit with Unix.Unix_error _ -> ())
           ())
    | None -> ()
  in
  let sup =
    Supervisor.create
      { (supervisor_config ()) with Supervisor.log = Some quit_spawned }
  in
  (match
     Supervisor.solve sup
       {
         (good_task "q1") with
         Worker.task_fault = Some "hang";
         task_deadline_s = Some 30.0;
       }
   with
  | Supervisor.Crashed reason -> check_string "quit reason" "signal 3" reason
  | o -> Alcotest.failf "quit solve: %s" (describe_outcome o));
  Supervisor.shutdown sup

let test_supervisor_breaker () =
  let cfg =
    {
      (supervisor_config ()) with
      Supervisor.breaker_threshold = 2;
      breaker_cooldown_s = 60.0;
      backoff_base_s = 0.0;
      backoff_cap_s = 0.0;
    }
  in
  let sup = Supervisor.create cfg in
  let crash id =
    match
      Supervisor.solve sup
        { (good_task id) with Worker.task_fault = Some "crash" }
    with
    | Supervisor.Crashed _ -> ()
    | o -> Alcotest.failf "%s: %s" id (describe_outcome o)
  in
  crash "b1";
  crash "b2";
  (* Two consecutive crashes trip the breaker; the next solve is
     answered without burning another process. *)
  (match Supervisor.solve sup (good_task "b3") with
  | Supervisor.Unavailable msg ->
    check_bool "breaker named" true (contains ~sub:"circuit breaker" msg)
  | o -> Alcotest.failf "breaker solve: %s" (describe_outcome o));
  let c = Supervisor.counters sup in
  check_int "breaker tripped once" 1 c.Supervisor.breaker_trips;
  Supervisor.shutdown sup;
  check_bool "slots validated" true
    (match Supervisor.create { cfg with Supervisor.slots = 0 } with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* End to end through the server: two worker crashes on one instance
   quarantine its canonical key; the third identical request answers
   [poisoned] without sacrificing a worker, and healthy instances keep
   solving throughout. *)
let test_server_isolated_crash_poison () =
  let sock = tmp_path "iso.sock" in
  let crash_text = t1_with_cap 17 in
  let th, res =
    start_server
      {
        (Server.default_config ~socket_path:sock) with
        Server.isolate = Some 1;
        worker_exe = Some cli_exe;
      }
  in
  (match
     Client.with_connection sock (fun c ->
         (match admit c ~id:"p1" ~fault:"crash" crash_text with
         | Protocol.Failed { cause; reason; _ } ->
           check_bool "crash contained, reported" true
             (cause = Protocol.Worker_crashed
             && contains ~sub:"worker crashed" reason)
         | r -> Alcotest.failf "p1: %s" (Protocol.status_of_response r));
         (match admit c ~id:"p2" ~fault:"crash" crash_text with
         | Protocol.Failed _ -> ()
         | r -> Alcotest.failf "p2: %s" (Protocol.status_of_response r));
         (* Third time: same instance, no fault requested — the
            quarantine answers before any worker sees it. *)
         (match admit c ~id:"p3" crash_text with
         | Protocol.Poisoned { reason; _ } ->
           check_string "poison verdict"
             "instance quarantined after 2 worker crashes" reason
         | r -> Alcotest.failf "p3: %s" (Protocol.status_of_response r));
         (* The pool recovered: a healthy instance still solves. *)
         ignore (expect_admitted (admit c ~id:"ok" (t1_text ())));
         (match Client.roundtrip c (Protocol.Release { id = "ok" }) with
         | Ok (Protocol.Released { found = true; _ }) -> ()
         | _ -> Alcotest.fail "release ok");
         shutdown c;
         Ok ())
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "client: %s" e);
  Thread.join th;
  match !res with
  | Ok (Server.Shutdown_request, s) ->
    check_int "two worker crashes" 2 s.Protocol.worker_crashes;
    check_int "one poisoned answer" 1 s.Protocol.poisoned;
    check_int "two failed answers" 2 s.Protocol.failed;
    check_int "no leaked admissions" 0 s.Protocol.live
  | Ok (r, _) -> Alcotest.failf "stop reason: %s" (Server.describe r)
  | Error e -> Alcotest.failf "server: %s" e

(* A task whose budget lapsed before dispatch arrives with
   [deadline_s = 0]: the worker answers [late] — with the reason an
   in-process solve of a lapsed job gives — and lives on. *)
let test_supervisor_expired_deadline () =
  let sup = Supervisor.create (supervisor_config ()) in
  let in_process =
    match Worker.parse ~config:(t1_text ()) ~fault:None with
    | Error e -> Alcotest.failf "parse: %s" e
    | Ok (cfg, plan) ->
      Worker.solve
        ~deadline:(Durable.Deadline.of_remaining_s 0.0)
        cfg plan
  in
  (match
     ( Supervisor.solve sup
         { (good_task "e1") with Worker.task_deadline_s = Some 0.0 },
       in_process )
   with
  | Supervisor.Done (Worker.Late reason), Worker.Late expected ->
    check_string "same reason as in-process" expected reason
  | o, _ -> Alcotest.failf "lapsed deadline: %s" (describe_outcome o));
  (match Supervisor.solve sup (good_task "e2") with
  | Supervisor.Done (Worker.Solved _) -> ()
  | o -> Alcotest.failf "solve after lapse: %s" (describe_outcome o));
  let c = Supervisor.counters sup in
  check_int "no worker lost" 0 c.Supervisor.crashed;
  check_int "one worker served both" 1 c.Supervisor.spawned;
  Supervisor.shutdown sup

(* Send [requests] back to back in one write on a bare socket, then
   read one reply per request: the server queues them together, so
   they land in one dispatch batch. *)
let pipelined sock requests =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  Unix.connect fd (Unix.ADDR_UNIX sock);
  Wire.write_line fd
    (String.concat "\n" (List.map Protocol.request_to_line requests));
  let frames = Wire.Framer.create () in
  let buf = Bytes.create 4096 in
  let rec reply () =
    match Wire.Framer.next frames with
    | Some (Wire.Framer.Frame line) -> (
      match Protocol.response_of_line line with
      | Ok r -> r
      | Error e -> Alcotest.failf "reply: %s" e)
    | Some Wire.Framer.Oversized -> Alcotest.fail "oversized reply"
    | None -> (
      match Unix.read fd buf 0 (Bytes.length buf) with
      | 0 -> Alcotest.fail "server closed the connection"
      | n ->
        Wire.Framer.feed frames (Bytes.sub_string buf 0 n);
        reply ())
  in
  List.map (fun _ -> reply ()) requests

(* One batch, one lane: the slow solve holds the lane past the second
   job's deadline, so the second reaches its worker already lapsed.
   That is a timeout, never a worker crash or a quarantine record.  A
   lead solve keeps the dispatcher busy while the pair queues, so the
   pair is sure to share a batch. *)
let test_server_isolated_lapsed_deadline () =
  let sock = tmp_path "lapse.sock" and quarantine = tmp_path "lapse.qj" in
  rm quarantine;
  let th, res =
    start_server
      {
        (Server.default_config ~socket_path:sock) with
        Server.isolate = Some 1;
        batch = 2;
        domains = 1;
        quarantine_path = Some quarantine;
        worker_exe = Some cli_exe;
      }
  in
  let lead =
    Thread.create
      (fun () ->
        match
          Client.with_connection sock (fun c ->
              Ok (admit c ~id:"lead" ~fault:"slow" (t1_with_cap 11)))
        with
        | Ok r -> ignore (expect_admitted r)
        | Error e -> Alcotest.failf "lead: %s" e)
      ()
  in
  Thread.delay 0.1;
  let admit_req ~id ?deadline_s ?fault config =
    Protocol.Admit { id; config; deadline_s; fault; retry = false }
  in
  (match
     pipelined sock
       [
         admit_req ~id:"slow" ~fault:"slow" (t1_with_cap 12);
         admit_req ~id:"short" ~deadline_s:0.65 (t1_with_cap 13);
       ]
   with
  | [ first; Protocol.Late _ ] -> ignore (expect_admitted first)
  | rs ->
    Alcotest.failf "replies: %s"
      (String.concat ", " (List.map Protocol.status_of_response rs)));
  Thread.join lead;
  (match Client.with_connection sock (fun c -> shutdown c; Ok ()) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "client: %s" e);
  Thread.join th;
  (match !res with
  | Ok (Server.Shutdown_request, s) ->
    check_int "one timeout" 1 s.Protocol.timed_out;
    check_int "no worker crash" 0 s.Protocol.worker_crashes
  | Ok (r, _) -> Alcotest.failf "stop reason: %s" (Server.describe r)
  | Error e -> Alcotest.failf "server: %s" e);
  (match Quarantine.create ~path:quarantine ~threshold:2 () with
  | Ok q ->
    check_int "no quarantine record" 0 (Quarantine.stats q).Quarantine.keys;
    Quarantine.close q
  | Error e -> Alcotest.failf "quarantine: %s" e);
  rm quarantine

(* ------------------------------------------------------------------ *)
(* One solve path: in-process and isolated replies agree               *)
(* ------------------------------------------------------------------ *)

(* Everything a reply says about the instance — all of it but the
   solve's wall-clock time. *)
let reply_facts = function
  | Worker.Solved { solved = s; attempts; _ } ->
    Printf.sprintf "solved\n%s%s\n%h %h attempts=%d" s.mapping s.certificate
      s.objective s.rounded_objective attempts
  | Worker.Unsat m -> "unsat " ^ m
  | Worker.Late m -> "late " ^ m
  | Worker.Failed { cause; reason } ->
    Printf.sprintf "failed (%s) %s" (Protocol.cause_name cause) reason

let test_in_process_matches_isolated () =
  let t1 = t1_text () in
  let battery =
    [
      ("t1", t1, None);
      ("t2", Format.asprintf "%a" Config.pp (Workloads.Gen.paper_t2 ()), None);
      ("mem", replace ~sub:"capacity 1000" ~by:"capacity 15" t1, None);
      ("infeasible", replace ~sub:"period 10" ~by:"period 1" t1, None);
      ("stall", t1, Some "stall");
      ("nan", t1, Some "nan");
      ("bad_round", t1, Some "bad_round");
      ("stall everywhere", t1, Some "stall,attempts=all");
      ("malformed config", "processor p1 replenishment", None);
      ("malformed fault", t1, Some "meltdown");
    ]
  in
  let sup = Supervisor.create (supervisor_config ()) in
  List.iter
    (fun (name, config, fault) ->
      let in_process =
        match Worker.parse ~config ~fault with
        | Error reason -> Worker.exception_failure reason
        | Ok (cfg, plan) ->
          Worker.solve ~deadline:Durable.Deadline.none cfg plan
      in
      match
        Supervisor.solve sup
          {
            Worker.task_id = name;
            task_config = config;
            task_fault = fault;
            task_deadline_s = None;
          }
      with
      | Supervisor.Done isolated ->
        check_string name (reply_facts in_process) (reply_facts isolated)
      | o -> Alcotest.failf "%s: %s" name (describe_outcome o))
    battery;
  check_int "no worker lost" 0 (Supervisor.counters sup).Supervisor.crashed;
  Supervisor.shutdown sup

(* A mapping whose exact certificate is refuted is never admitted nor
   memoised, in process or isolated: the admit that corrupts its
   rounding fails with the refutation, and a clean admit of the same
   instance that follows is a cache miss with a certified mapping. *)
let refuted_never_admitted ~isolate () =
  let sock = tmp_path "refuted.sock" and cache = tmp_path "refuted.cachej" in
  rm cache;
  let th, res =
    start_server
      {
        (Server.default_config ~socket_path:sock) with
        Server.cache_path = Some cache;
        isolate;
        worker_exe = Some cli_exe;
      }
  in
  (match
     Client.with_connection sock (fun c ->
         (match admit c ~id:"a" ~fault:"bad_round" (t1_text ()) with
         | Protocol.Failed { cause; reason; _ } ->
           check_string "refutation is the reason"
             "refuted: task graph t1: positive cycle wa.2 (excess 10/3)" reason;
           check_string "refutation is the cause" "uncertifiable"
             (Protocol.cause_name cause)
         | r -> Alcotest.failf "a: %s" (Protocol.status_of_response r));
         (match Client.roundtrip c (Protocol.Release { id = "a" }) with
         | Ok (Protocol.Released { found = false; _ }) -> ()
         | _ -> Alcotest.fail "a was never admitted");
         (match Client.roundtrip c Protocol.Stats with
         | Ok (Protocol.Stats_reply s) ->
           check_int "nothing admitted" 0 s.Protocol.admitted
         | _ -> Alcotest.fail "stats");
         let b = expect_admitted (admit c ~id:"b" (t1_text ())) in
         check_bool "clean admit is a miss" true (b.cache = `Miss);
         check_string "certified" "ok (exact, 4 start times)" b.certificate;
         shutdown c;
         Ok ())
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "client: %s" e);
  Thread.join th;
  (match !res with
  | Ok (Server.Shutdown_request, s) ->
    check_int "one admitted" 1 s.Protocol.admitted;
    check_int "one failed" 1 s.Protocol.failed
  | Ok (r, _) -> Alcotest.failf "stop reason: %s" (Server.describe r)
  | Error e -> Alcotest.failf "server: %s" e);
  rm cache

(* A fault spec the grammar refuses is answered with the message of
   [Fault.of_string] unchanged, whichever path parses it: a task piped
   into a worker process, and an admit to an in-process server.  The
   kind error carries no prefix, an option error exactly one. *)
let fault_spec_errors =
  [
    ("stall,bogus=1", "fault spec: unknown option \"bogus\"");
    ( "bogus",
      "unknown fault kind \"bogus\" (expected stall, nan, slow, dense_kkt, \
       bad_round, crash, hang or oom)" );
  ]

let test_fault_spec_errors_pass_through () =
  let t1 = t1_text () in
  let from_worker, to_worker =
    Unix.open_process_args cli_exe [| cli_exe; "worker" |]
  in
  List.iter
    (fun (spec, _) ->
      output_string to_worker
        (Worker.task_line
           {
             Worker.task_id = spec;
             task_config = t1;
             task_fault = Some spec;
             task_deadline_s = None;
           }
        ^ "\n"))
    fault_spec_errors;
  close_out to_worker;
  ignore (input_line from_worker);
  let replies = List.map (fun _ -> input_line from_worker) fault_spec_errors in
  ignore (Unix.close_process (from_worker, to_worker));
  List.iter2
    (fun (spec, reason) reply ->
      check_string ("worker " ^ spec)
        (Worker.reply_line ~id:spec (Worker.exception_failure reason))
        reply)
    fault_spec_errors replies;
  let sock = tmp_path "faultspec.sock" in
  let th, res = start_server (Server.default_config ~socket_path:sock) in
  (match
     Client.with_connection sock (fun c ->
         List.iter
           (fun (spec, reason) ->
             match admit c ~id:spec ~fault:spec t1 with
             | Protocol.Refused { reason = got } ->
               check_string ("admit " ^ spec) reason got
             | r ->
               Alcotest.failf "admit %s: expected refused, got %s" spec
                 (Protocol.status_of_response r))
           fault_spec_errors;
         shutdown c;
         Ok ())
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "client: %s" e);
  Thread.join th;
  match !res with
  | Ok (Server.Shutdown_request, _) -> ()
  | Ok (r, _) -> Alcotest.failf "stop reason: %s" (Server.describe r)
  | Error e -> Alcotest.failf "server: %s" e

let spawn_serve args =
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  (* The drill measures crash recovery, not chaos: don't let a
     @runtest-chaos schedule leak into the spawned server. *)
  let env =
    Array.of_list
      (List.filter
         (fun kv -> not (String.starts_with ~prefix:"BUDGETBUF_CHAOS=" kv))
         (Array.to_list (Unix.environment ())))
  in
  let pid =
    Unix.create_process_env cli_exe
      (Array.of_list (cli_exe :: args))
      env devnull devnull devnull
  in
  Unix.close devnull;
  pid

(* The real kill -9 drill, against a real [budgetbuf serve] process:
   warm the memo cache, poison an instance, SIGKILL the supervisor
   mid-flight, restart on the same journals.  The cached instance must
   hit byte-identically and the poisoned verdict must hold without a
   single new worker crash. *)
let test_server_isolated_kill9_recovery () =
  let sock = tmp_path "k9.sock"
  and cache = tmp_path "k9.cachej"
  and quarantine = tmp_path "k9.quarj" in
  rm cache;
  rm quarantine;
  rm (cache ^ ".quarantine");
  rm (quarantine ^ ".quarantine");
  let serve_args =
    [
      "serve"; "--socket"; sock; "--cache"; cache; "--isolate"; "1";
      "--quarantine"; quarantine;
    ]
  in
  let backoff = { Client.default_backoff with Client.retries = 40 } in
  let crash_text = t1_with_cap 18 in
  let pid1 = spawn_serve serve_args in
  let first =
    match
      Client.with_connection ~backoff sock (fun c ->
          let a = expect_admitted (admit c ~id:"good" (t1_text ())) in
          check_bool "run 1 misses" true (a.cache = `Miss);
          (match admit c ~id:"p1" ~fault:"crash" crash_text with
          | Protocol.Failed { reason; _ } ->
            check_bool "run 1 crash reported" true
              (contains ~sub:"worker crashed" reason)
          | r -> Alcotest.failf "p1: %s" (Protocol.status_of_response r));
          (match admit c ~id:"p2" ~fault:"crash" crash_text with
          | Protocol.Failed _ -> ()
          | r -> Alcotest.failf "p2: %s" (Protocol.status_of_response r));
          Ok a)
    with
    | Ok a -> a
    | Error e -> Alcotest.failf "run 1: %s" e
  in
  Unix.kill pid1 Sys.sigkill;
  ignore (Unix.waitpid [] pid1);
  (* Same journals, fresh process. *)
  let pid2 = spawn_serve serve_args in
  (match
     Client.with_connection ~backoff sock (fun c ->
         let a = expect_admitted (admit c ~id:"good2" (t1_text ())) in
         check_bool "run 2 hits the recovered cache" true (a.cache = `Hit);
         check_string "mapping survives kill -9" first.mapping a.mapping;
         check_string "certificate survives kill -9" first.certificate
           a.certificate;
         (match admit c ~id:"p3" crash_text with
         | Protocol.Poisoned { reason; _ } ->
           check_bool "poison survives kill -9" true
             (contains ~sub:"quarantined" reason)
         | r -> Alcotest.failf "p3: %s" (Protocol.status_of_response r));
         (match Client.roundtrip c Protocol.Stats with
         | Ok (Protocol.Stats_reply s) ->
           check_int "no new crashes after restart" 0 s.Protocol.worker_crashes;
           check_int "poisoned answered from the journal" 1 s.Protocol.poisoned
         | _ -> Alcotest.fail "stats");
         shutdown c;
         Ok ())
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "run 2: %s" e);
  ignore (Unix.waitpid [] pid2);
  rm cache;
  rm quarantine

(* Handler isolation keeps a failed request's identity.  A [budgetbuf
   serve] whose every request raises in its handler answers each one
   [failed] with cause [handler] and the request's own id, and traces
   every [request_start] with a [request_done] of the same op and id.
   [Client.submit] re-issues such a failure until its attempts run
   out. *)
let test_handler_failure_keeps_op_and_id () =
  let sock = tmp_path "hfail.sock" and trace = tmp_path "hfail.trace" in
  rm trace;
  let pid =
    spawn_serve
      [ "serve"; "--socket"; sock; "--chaos"; "exn,n=1"; "--trace"; trace ]
  in
  let backoff = { Client.default_backoff with Client.retries = 40 } in
  let requests =
    [
      ( "h1",
        Protocol.Admit
          {
            id = "h1";
            config = t1_text ();
            deadline_s = None;
            fault = None;
            retry = false;
          } );
      ("h1", Protocol.Release { id = "h1" });
      ("", Protocol.Ping);
      ("", Protocol.Stats);
    ]
  in
  (match
     Client.with_connection ~backoff sock (fun c ->
         List.iter
           (fun (want, request) ->
             match Client.roundtrip c request with
             | Ok (Protocol.Failed { id; cause = Protocol.Handler; reason }) ->
               check_string "failed reply keeps the id" want id;
               check_bool "reason names the exception" true
                 (contains ~sub:"injected handler failure" reason)
             | Ok r -> Alcotest.failf "expected failed, got %s"
                         (Protocol.status_of_response r)
             | Error e -> Alcotest.failf "roundtrip: %s" e)
           requests;
         Ok ())
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "client: %s" e);
  let retry =
    { Client.default_retry with attempts = 3; backoff = { backoff with base_s = 0.001 } }
  in
  (match
     Client.submit ~retry ~socket:sock (Protocol.Release { id = "h2" })
   with
  | Ok (Protocol.Failed { cause = Protocol.Handler; _ }) -> ()
  | Ok r -> Alcotest.failf "submit: %s" (Protocol.status_of_response r)
  | Error e -> Alcotest.failf "submit: %s" e);
  Unix.kill pid Sys.sigterm;
  ignore (Unix.waitpid [] pid);
  let events =
    match Obs.Sink.read_file trace with
    | Ok evs -> List.map (fun e -> e.Obs.Trace.event) evs
    | Error e -> Alcotest.failf "trace: %s" e
  in
  rm trace;
  let starts =
    List.filter_map
      (function Obs.Trace.Request_start { op; id } -> Some (op, id) | _ -> None)
      events
  and dones =
    List.filter_map
      (function
        | Obs.Trace.Request_done { op; id; status; _ } ->
          check_string "traced status" "failed" status;
          Some (op, id)
        | _ -> None)
      events
  in
  Alcotest.(check (list (pair string string)))
    "every request_start has its request_done"
    ([ ("admit", "h1"); ("release", "h1"); ("ping", ""); ("stats", "") ]
    @ List.init 3 (fun _ -> ("release", "h2")))
    starts;
  Alcotest.(check (list (pair string string))) "same op and id" starts dones

(* A failure that is a verdict about the solve is returned at once:
   [Client.submit] retries only the server's [handler] failures. *)
let test_submit_returns_solver_failure () =
  let sock = tmp_path "sfail.sock" in
  let sink = Obs.Sink.ring ~capacity:256 in
  let th, res =
    start_server
      {
        (Server.default_config ~socket_path:sock) with
        Server.obs = Some (Obs.Ctx.make ~sink ());
      }
  in
  (match
     Client.submit ~socket:sock
       (Protocol.Admit
          {
            id = "s1";
            config = t1_text ();
            deadline_s = None;
            fault = Some "stall,attempts=all";
            retry = false;
          })
   with
  | Ok (Protocol.Failed { cause; _ }) ->
    check_string "solver cause" "stalled" (Protocol.cause_name cause)
  | Ok r -> Alcotest.failf "s1: %s" (Protocol.status_of_response r)
  | Error e -> Alcotest.failf "s1: %s" e);
  (match Client.with_connection sock (fun c -> shutdown c; Ok ()) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "client: %s" e);
  Thread.join th;
  (match !res with
  | Ok (Server.Shutdown_request, s) -> check_int "one failed" 1 s.Protocol.failed
  | Ok (r, _) -> Alcotest.failf "stop reason: %s" (Server.describe r)
  | Error e -> Alcotest.failf "server: %s" e);
  check_int "one attempt" 1
    (List.length
       (List.filter
          (fun e ->
            match e.Obs.Trace.event with
            | Obs.Trace.Request_start { op = "admit"; _ } -> true
            | _ -> false)
          (Obs.Sink.events sink)))

(* ------------------------------------------------------------------ *)

(* Client-side writes can race a halting server that has restored the
   default SIGPIPE disposition; the suite wants EPIPE errors, not
   signal death. *)
let () = ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore)

let () =
  Alcotest.run "serve"
    [
      ( "wire",
        [
          Alcotest.test_case "round trip" `Quick test_wire_roundtrip;
          Alcotest.test_case "rejects" `Quick test_wire_rejects;
          Alcotest.test_case "framer units" `Quick test_framer_units;
          Alcotest.test_case "framer max frame" `Quick test_framer_max_frame;
          QCheck_alcotest.to_alcotest qcheck_framer_chunking;
          QCheck_alcotest.to_alcotest qcheck_framer_oversized_chunking;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "round trips" `Quick test_protocol_roundtrip;
          Alcotest.test_case "rejects" `Quick test_protocol_rejects;
          Alcotest.test_case "verdict codecs" `Quick test_verdict_codecs;
          Alcotest.test_case "version handshake" `Quick test_protocol_version;
          Alcotest.test_case "codec errors name the message" `Quick
            test_codec_errors_name_the_message;
        ] );
      ( "bounded",
        [
          Alcotest.test_case "backpressure" `Quick test_bounded_backpressure;
          Alcotest.test_case "close drains" `Quick test_bounded_close_drains;
          Alcotest.test_case "halt discards" `Quick test_bounded_halt_discards;
          Alcotest.test_case "blocking pop" `Quick test_bounded_blocking_pop;
          Alcotest.test_case "multi-domain drain" `Quick
            test_bounded_domains_drain;
          Alcotest.test_case "multi-domain halt" `Quick
            test_bounded_domains_halt;
        ] );
      ( "client",
        [
          Alcotest.test_case "backoff schedule" `Quick test_backoff_schedule;
          Alcotest.test_case "submit returns a solver failure" `Quick
            test_submit_returns_solver_failure;
        ] );
      ( "canonical key",
        [
          Alcotest.test_case "respelling unit" `Quick test_key_respelling_unit;
          QCheck_alcotest.to_alcotest qcheck_key_invariant;
          QCheck_alcotest.to_alcotest qcheck_key_sensitive;
        ] );
      ( "cache",
        [
          Alcotest.test_case "store, close, reopen" `Quick
            test_cache_store_reopen;
          Alcotest.test_case "foreign file refused" `Quick
            test_cache_foreign_file;
          Alcotest.test_case "bounded, compacted" `Quick
            test_cache_bounded_compaction;
          Alcotest.test_case "quarantine and stale tmp" `Quick
            test_cache_quarantine_and_stale_tmp;
          Alcotest.test_case "chaos I/O hooks" `Quick test_cache_chaos_hooks;
        ] );
      ( "server",
        [
          Alcotest.test_case "admit, release, stats" `Quick
            test_server_admit_release_stats;
          Alcotest.test_case "admission capacity" `Quick
            test_server_admission_capacity;
          Alcotest.test_case "deadline and fault" `Quick
            test_server_deadline_and_fault;
          Alcotest.test_case "crash, restart, cache hit" `Quick
            test_server_restart_recovery;
          Alcotest.test_case "malformed refused" `Quick
            test_server_refuses_malformed;
          Alcotest.test_case "ping readiness" `Quick test_server_ping_readiness;
          Alcotest.test_case "watchdog reaps stuck solve" `Quick
            test_server_watchdog_reaps;
          Alcotest.test_case "reconcile releases crashed client" `Quick
            test_server_reconcile_releases;
          Alcotest.test_case "handler failure keeps op and id" `Quick
            test_handler_failure_keeps_op_and_id;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "campaign, twice, deterministically" `Quick
            test_server_chaos_campaign;
        ] );
      ( "crash",
        [
          Alcotest.test_case "quarantine counts, reopen" `Quick
            test_quarantine_counts_reopen;
          Alcotest.test_case "quarantine salvage" `Quick
            test_quarantine_salvage;
          Alcotest.test_case "supervisor solve, crash, respawn" `Quick
            test_supervisor_solve_crash_respawn;
          Alcotest.test_case "supervisor oom, respawn" `Quick
            test_supervisor_oom_respawn;
          Alcotest.test_case "supervisor reaps a hang" `Quick
            test_supervisor_reaps_hang;
          Alcotest.test_case "worker signal by its OS number" `Quick
            test_supervisor_reports_os_signal;
          Alcotest.test_case "circuit breaker" `Quick test_supervisor_breaker;
          Alcotest.test_case "isolated crash quarantines, poisons" `Quick
            test_server_isolated_crash_poison;
          Alcotest.test_case "kill -9 recovery of cache and quarantine" `Quick
            test_server_isolated_kill9_recovery;
          Alcotest.test_case "expired deadline answers late" `Quick
            test_supervisor_expired_deadline;
          Alcotest.test_case "lapsed deadline is no crash" `Quick
            test_server_isolated_lapsed_deadline;
        ] );
      ( "solve path",
        [
          Alcotest.test_case "in-process and isolated replies agree" `Quick
            test_in_process_matches_isolated;
          Alcotest.test_case "fault spec errors pass through" `Quick
            test_fault_spec_errors_pass_through;
          Alcotest.test_case "refuted mapping never admitted" `Quick
            (refuted_never_admitted ~isolate:None);
          Alcotest.test_case "refuted mapping never admitted, isolated" `Quick
            (refuted_never_admitted ~isolate:(Some 1));
        ] );
    ]
