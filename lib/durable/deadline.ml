(* A deadline is the absolute instant after which work must stop;
   [infinity] encodes "no limit" so combining and checking need no
   option plumbing.  The clock is replaceable for tests: a sweep
   deadline test should not have to sleep. *)

let clock = ref Unix.gettimeofday

let set_clock_for_testing = function
  | None -> clock := Unix.gettimeofday
  | Some f -> clock := f

let now () = !clock ()

type t = float

let none = infinity
let is_none t = t = infinity

let after seconds =
  if not (Float.is_finite seconds) || seconds <= 0.0 then
    invalid_arg "Durable.Deadline.after: seconds must be positive and finite";
  now () +. seconds

let of_remaining_s seconds =
  if Float.is_nan seconds then now () else now () +. seconds

let combine a b = Float.min a b
let expired t = now () >= t
let remaining_s t = t -. now ()

let check t = if is_none t then None else Some (fun () -> expired t)
