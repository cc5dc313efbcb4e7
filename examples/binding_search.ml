(* Binding search on top of the joint budget/buffer computation — the
   paper's announced next step ("compute the binding of tasks to
   processors").  A four-stage pipeline with asymmetric WCETs must be
   placed on two asymmetric processors; the example compares the
   heuristics against exhaustive search, then reports latency and a
   Pareto sweep for the winning binding.

   Run with:  dune exec examples/binding_search.exe *)

module Config = Taskgraph.Config
module Mapping = Budgetbuf.Mapping
module Binding = Budgetbuf.Binding
module Pareto = Budgetbuf.Pareto

let make_config () =
  let cfg = Config.create ~granularity:1.0 () in
  let _fast = Config.add_processor cfg ~name:"fast" ~replenishment:30.0 () in
  let _slow = Config.add_processor cfg ~name:"slow" ~replenishment:60.0 () in
  let m = Config.add_memory cfg ~name:"m0" ~capacity:4096 in
  let g = Config.add_graph cfg ~name:"pipe" ~period:12.0 () in
  let wcets = [ ("grab", 1.0); ("filter", 3.0); ("encode", 2.0); ("emit", 0.5) ] in
  let tasks =
    List.map
      (fun (name, wcet) ->
        (* The initial binding is irrelevant: optimize re-binds. *)
        Config.add_task cfg g ~name ~proc:_fast ~wcet ())
      wcets
  in
  let rec connect i = function
    | a :: (b :: _ as rest) ->
      ignore
        (Config.add_buffer cfg g
           ~name:(Printf.sprintf "q%d" i)
           ~src:a ~dst:b ~memory:m ~weight:0.01 ());
      connect (i + 1) rest
    | [ _ ] | [] -> ()
  in
  connect 0 tasks;
  cfg

let report name = function
  | Error msg -> Format.printf "%-22s %s@." name msg
  | Ok (o : Binding.outcome) ->
    let placement =
      String.concat ", "
        (List.map (fun (t, p) -> t ^ "->" ^ p) o.Binding.assignment)
    in
    Format.printf "%-22s objective %8.3f  (%d solve%s)  %s@." name
      o.Binding.result.Mapping.rounded_objective o.Binding.explored
      (if o.Binding.explored = 1 then "" else "s")
      placement

let () =
  Format.printf
    "Four-stage pipeline on two processors (fast: 30 Mcycles interval, \
     slow: 60):@.@.";
  report "first fit"
    (Binding.optimize ~strategy:Binding.First_fit (make_config ()));
  report "greedy utilisation"
    (Binding.optimize ~strategy:Binding.Greedy_utilization (make_config ()));
  let exhaustive =
    Binding.optimize ~strategy:(Binding.Exhaustive 64) (make_config ())
  in
  report "exhaustive (16 cands)" exhaustive;
  match exhaustive with
  | Error _ -> ()
  | Ok o ->
    let cfg = o.Binding.config in
    let g = Config.find_graph cfg "pipe" in
    (match
       Budgetbuf.Certify.latency cfg o.Binding.result.Mapping.mapped g
     with
    | Some l ->
      Format.printf
        "@.end-to-end latency of the best mapping: %s Mcycles (period 12)@."
        (Exact.Rat.to_decimal ~round:`Up ~digits:1 l)
    | None -> ());
    Format.printf "@.Pareto frontier for the best binding:@.";
    List.iter
      (fun p -> Format.printf "  %a@." Pareto.pp_point p)
      (Pareto.frontier ~steps:9 cfg).Pareto.points
