module Socp = Conic.Socp

type process = Crash | Hang | Oom

type kind = Solver of Socp.fault | Bad_round | Process of process

type plan = {
  kind : kind;
  iteration : int;
  attempts : int;
  only : int option;
}

let stall_first =
  { kind = Solver Socp.Stall; iteration = 0; attempts = 1; only = None }

let grammar =
  {
    Spec.name = "fault";
    kinds =
      [
        (Solver Socp.Stall, "stall");
        (Solver Socp.Nan, "nan");
        (Solver Socp.Slow, "slow");
        (Solver Socp.Dense_kkt, "dense_kkt");
        (Bad_round, "bad_round");
        (Process Crash, "crash");
        (Process Hang, "hang");
        (Process Oom, "oom");
      ];
    plan = (fun kind -> { stall_first with kind });
    kind = (fun p -> p.kind);
    keys =
      [
        Spec.int_key "iter" ~at_least:`Zero
          ~get:(fun p -> if p.iteration = 0 then None else Some p.iteration)
          ~set:(fun p n -> { p with iteration = n });
        {
          key = "attempts";
          set =
            (fun p raw ->
              match String.trim raw with
              | "all" -> Ok { p with attempts = max_int }
              | v -> (
                match int_of_string_opt v with
                | Some n when n >= 1 -> Ok { p with attempts = n }
                | Some _ | None ->
                  Error
                    (Printf.sprintf
                       "attempts expects a positive integer or \"all\", got %S"
                       v)));
          show =
            (fun p ->
              if p.attempts = 1 then None
              else if p.attempts = max_int then Some "all"
              else Some (string_of_int p.attempts));
        };
        Spec.int_key "only" ~at_least:`Zero
          ~get:(fun p -> p.only)
          ~set:(fun p n -> { p with only = Some n });
      ];
    positional = 0;
  }

let of_string = Spec.parse grammar
let kind_name = Spec.kind_name grammar
let to_string = Spec.to_string grammar
let of_env () = Spec.of_env grammar ~var:"BUDGETBUF_FAULT"

let for_candidate plan ~index =
  match plan with
  | None -> None
  | Some { only = None; _ } -> plan
  | Some ({ only = Some i; _ } as p) ->
    if i = index then Some { p with only = None } else None

let covers plan ~attempt =
  match plan with
  | None | Some { kind = Bad_round | Process _; _ } -> false
  | Some p -> attempt <= p.attempts

let process_kind = function
  | Some { kind = Process p; _ } -> Some p
  | Some _ | None -> None

let inject plan ~attempt =
  match plan with
  | Some ({ kind = Solver fault; _ } as p) when attempt <= p.attempts ->
    Some (fun iter -> if iter = p.iteration then Some fault else None)
  | Some _ | None -> None

let corrupts_rounding = function
  | Some { kind = Bad_round; _ } -> true
  | Some _ | None -> false

(* Deterministic schedule randomness: splitmix64 output mixing over a
   (seed, salt, ordinal) triple.  Chaos schedules and client backoff
   jitter both key on this, so the same seed replays the same decision
   sequence byte for byte on any platform. *)

let mix64 x =
  let open Int64 in
  let z = add x 0x9E3779B97F4A7C15L in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let det_bits ~seed ~salt n =
  let h = ref (mix64 (Int64.of_int seed)) in
  String.iter
    (fun c -> h := mix64 (Int64.logxor !h (Int64.of_int (Char.code c))))
    salt;
  mix64 (Int64.logxor !h (Int64.of_int n))

let det_int ~seed ~salt ~bound n =
  if bound <= 0 then invalid_arg "Fault.det_int: bound must be positive";
  let v = Int64.to_int (Int64.shift_right_logical (det_bits ~seed ~salt n) 2) in
  v mod bound

let det_float ~seed ~salt n =
  let v = Int64.to_float (Int64.shift_right_logical (det_bits ~seed ~salt n) 11) in
  v *. 0x1p-53
