(* Blocking line-oriented client.  Replies are small (one line), so a
   plain read loop feeding a Wire.Framer is all the machinery needed.

   Connecting retries with capped exponential backoff under
   deterministic seeded jitter: attempt i sleeps
   min(cap, base * multiplier^i) scaled by a factor in [0.75, 1.25)
   drawn from Robust.Fault.det_float — reproducible schedules for the
   tests, desynchronised herds in production (two clients pick
   different seeds). *)

type backoff = {
  base_s : float;
  cap_s : float;
  multiplier : float;
  retries : int;
  seed : int;
}

let default_backoff =
  { base_s = 0.02; cap_s = 0.4; multiplier = 1.7; retries = 24; seed = 0 }

let jitter b ~salt i =
  0.75 +. (0.5 *. Robust.Fault.det_float ~seed:b.seed ~salt i)

let backoff_delay b i =
  Float.min b.cap_s (b.base_s *. (b.multiplier ** float_of_int i))
  *. jitter b ~salt:"connect" i

type t = { fd : Unix.file_descr; frames : Wire.Framer.t; mutable closed : bool }

let connect ?(backoff = default_backoff) path =
  let rec go i =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.set_close_on_exec fd;
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> Ok { fd; frames = Wire.Framer.create (); closed = false }
    | exception Unix.Unix_error (e, _, _) ->
      Unix.close fd;
      if i < backoff.retries then begin
        Unix.sleepf (backoff_delay backoff i);
        go (i + 1)
      end
      else
        Error
          (Printf.sprintf "cannot connect to %s: %s" path
             (Unix.error_message e))
  in
  go 0

let close t =
  if not t.closed then begin
    t.closed <- true;
    try Unix.close t.fd with Unix.Unix_error _ -> ()
  end

let read_line t =
  let scratch = Bytes.create 4096 in
  let rec go () =
    match Wire.Framer.next t.frames with
    | Some (Wire.Framer.Frame line) -> Ok line
    | Some Wire.Framer.Oversized ->
      (* A reply bigger than the frame bound is not a reply we can
         trust; treat it as a transport failure. *)
      Error "oversized reply from server"
    | None -> (
      match Unix.read t.fd scratch 0 (Bytes.length scratch) with
      | 0 -> Error "connection closed by server"
      | n ->
        Wire.Framer.feed t.frames (Bytes.sub_string scratch 0 n);
        go ()
      | exception Unix.Unix_error (e, _, _) ->
        Error (Printf.sprintf "read: %s" (Unix.error_message e)))
  in
  go ()

let roundtrip t request =
  if t.closed then Error "connection is closed"
  else begin
    match Wire.write_line t.fd (Protocol.request_to_line request) with
    | exception Unix.Unix_error (e, _, _) ->
      Error (Printf.sprintf "write: %s" (Unix.error_message e))
    | () -> (
      match read_line t with
      | Error _ as e -> e
      | Ok reply -> Protocol.response_of_line reply)
  end

let with_connection ?backoff path f =
  match connect ?backoff path with
  | Error _ as e -> e
  | Ok t -> Fun.protect ~finally:(fun () -> close t) (fun () -> f t)

(* ---- resilient submission ---------------------------------------- *)

type retry_policy = {
  attempts : int;
  overloaded_wait_cap_s : float;
  backoff : backoff;
}

let default_retry =
  { attempts = 4; overloaded_wait_cap_s = 0.5; backoff = default_backoff }

(* Re-issuing an admit is safe because the request is keyed on its
   canonical instance: the wire-level [retry] flag tells the server
   "if you already admitted this id for this instance, answer again
   instead of rejecting the duplicate" — capacity is never charged
   twice however many times the reply gets lost.  Retried failure
   modes: transport errors (reset, torn reply, dead server),
   [Overloaded] backpressure (honouring its [retry_after_s] hint,
   capped), and handler-isolation failures (cause [Handler], the
   server-side residue of an injected exception).
   Genuine verdicts — admitted, rejected, infeasible, timed out,
   poisoned, solver failure — return immediately: in particular a
   [poisoned] reply is the server telling us this exact instance
   keeps killing its workers, so re-asking is pointless. *)
let submit ?(retry = default_retry) ~socket request =
  let reissue = function
    | Protocol.Admit a -> Protocol.Admit { a with retry = true }
    | r -> r
  in
  let rec go request attempt last_error =
    if attempt >= retry.attempts then
      Error
        (Printf.sprintf "no reply after %d attempts: %s" retry.attempts
           last_error)
    else begin
      let pause kind =
        let d =
          match kind with
          | `Backoff -> backoff_delay retry.backoff attempt
          | `Hinted after ->
            Float.min retry.overloaded_wait_cap_s (Float.max 0.0 after)
            *. jitter retry.backoff ~salt:"overloaded" attempt
        in
        if d > 0.0 then Unix.sleepf d
      in
      match
        with_connection ~backoff:retry.backoff socket (fun t ->
            roundtrip t request)
      with
      | Ok (Protocol.Overloaded { retry_after_s; _ })
        when attempt + 1 < retry.attempts ->
        pause (`Hinted retry_after_s);
        go request (attempt + 1) "overloaded"
      | Ok (Protocol.Failed { cause = Protocol.Handler; reason; _ })
        when attempt + 1 < retry.attempts ->
        pause `Backoff;
        go (reissue request) (attempt + 1) reason
      | Ok _ as r -> r
      | Error msg ->
        pause `Backoff;
        go (reissue request) (attempt + 1) msg
    end
  in
  go request 0 "never sent"
