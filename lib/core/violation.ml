type t =
  | Throughput of { graph : string; period : float }
  | Processor_capacity of { proc : string; used : float; capacity : float }
  | Memory_capacity of { memory : string; used : int; capacity : int }
  | Latency of { graph : string; latency : float; bound : float }
  | Buffer_bound of { buffer : string; capacity : int; bound : int }
  | Budget_range of { task : string; budget : float; replenishment : float }
  | Non_finite of { what : string; value : float }

let constraint_id = function
  | Throughput _ -> "throughput"
  | Processor_capacity _ -> "proc-capacity"
  | Memory_capacity _ -> "mem-capacity"
  | Latency _ -> "latency"
  | Buffer_bound _ -> "buffer-bound"
  | Budget_range _ -> "budget-range"
  | Non_finite _ -> "non-finite"

let to_string = function
  | Throughput { graph; period } ->
      Printf.sprintf "task graph %s: no periodic schedule with period %g exists"
        graph period
  | Processor_capacity { proc; used; capacity } ->
      Printf.sprintf "processor %s: allocated budgets %g exceed the interval %g"
        proc used capacity
  | Memory_capacity { memory; used; capacity } ->
      Printf.sprintf "memory %s: buffer footprint %d exceeds capacity %d" memory
        used capacity
  | Latency { graph; latency; bound } ->
      Printf.sprintf "task graph %s: latency %g exceeds its bound %g" graph
        latency bound
  | Buffer_bound { buffer; capacity; bound } ->
      Printf.sprintf "buffer %s: capacity %d exceeds its bound %d" buffer
        capacity bound
  | Budget_range { task; budget; replenishment } ->
      Printf.sprintf "task %s: budget %g outside (0, %g]" task budget
        replenishment
  | Non_finite { what; value } ->
      Printf.sprintf "%s is not finite (%g)" what value

let pp fmt v = Format.pp_print_string fmt (to_string v)
