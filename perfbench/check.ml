(* Output checks shared by every workload: certificates, mappings that
   parse, and the quality figures computed from a returned mapping. *)

module Config = Taskgraph.Config

let lines s = String.split_on_char '\n' s

let find_line ~prefix s = List.find_opt (String.starts_with ~prefix) (lines s)

let after ~prefix l = String.sub l (String.length prefix) (String.length l - String.length prefix)

let exact_certificate c = String.starts_with ~prefix:"ok (exact" c

(* Sum of buffer capacities. *)
let containers cfg (m : Config.mapped) =
  List.fold_left (fun acc b -> acc + m.Config.capacity b) 0 (Config.all_buffers cfg)

(* Objective (5) of a rounded mapping, as the solver reports it:
   weighted budgets plus weighted containers above the initial tokens. *)
let objective cfg (m : Config.mapped) =
  List.fold_left
    (fun acc w -> acc +. (Config.task_weight cfg w *. m.Config.budget w))
    0.0 (Config.all_tasks cfg)
  +. List.fold_left
       (fun acc b ->
         acc
         +. Config.buffer_weight cfg b
            *. float_of_int
                 (Config.container_size cfg b
                 * (m.Config.capacity b - Config.initial_tokens cfg b)))
       0.0 (Config.all_buffers cfg)

type mapping = { text : string; containers : int; objective : float }

let mapping cfg text =
  match Taskgraph.Mapped_io.parse cfg text with
  | m -> Ok { text; containers = containers cfg m; objective = objective cfg m }
  | exception Taskgraph.Mapped_io.Parse_error (line, msg) ->
    Error (Printf.sprintf "mapping line %d: %s" line msg)

let close_to a b = Float.abs (a -. b) <= 1e-3 *. (1.0 +. Float.abs b)

(* Digest of labelled results, independent of the order they ran in. *)
let digest pairs =
  Digest.to_hex
    (Digest.string
       (String.concat "\n"
          (List.map (fun (k, d) -> k ^ " " ^ d) (List.sort compare pairs))))
