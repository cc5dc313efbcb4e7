type t =
  | Throughput of { graph : string; period : float }
  | Processor_capacity of { proc : string; used : float; capacity : float }
  | Memory_capacity of { memory : string; used : int; capacity : int }
  | Latency of { graph : string; latency : float; bound : float }
  | Buffer_bound of { buffer : string; capacity : int; bound : int }
  | Budget_range of { task : string; budget : float; replenishment : float }
  | Non_finite of { what : string; value : float }

(* The shortest [%g] rendering, from six significant digits up, that
   reads back as the same float: two different values never print
   alike, so a period requirement of 9.99999999999 does not read 10 and
   budgets that exceed their interval by an ulp do not read equal. *)
let num x =
  let rec render digits =
    let s = Printf.sprintf "%.*g" digits x in
    if digits >= 17 || Float.equal (float_of_string s) x then s
    else render (digits + 1)
  in
  render 6

let to_string = function
  | Throughput { graph; period } ->
      Printf.sprintf "task graph %s: no periodic schedule with period %s exists"
        graph (num period)
  | Processor_capacity { proc; used; capacity } ->
      Printf.sprintf "processor %s: allocated budgets %s exceed the interval %s"
        proc (num used) (num capacity)
  | Memory_capacity { memory; used; capacity } ->
      Printf.sprintf "memory %s: buffer footprint %d exceeds capacity %d" memory
        used capacity
  | Latency { graph; latency; bound } ->
      Printf.sprintf "task graph %s: latency %s exceeds its bound %s" graph
        (num latency) (num bound)
  | Buffer_bound { buffer; capacity; bound } ->
      Printf.sprintf "buffer %s: capacity %d exceeds its bound %d" buffer
        capacity bound
  | Budget_range { task; budget; replenishment } ->
      Printf.sprintf "task %s: budget %s outside (0, %s]" task (num budget)
        (num replenishment)
  | Non_finite { what; value } ->
      Printf.sprintf "%s is not finite (%s)" what (num value)

let pp fmt v = Format.pp_print_string fmt (to_string v)
