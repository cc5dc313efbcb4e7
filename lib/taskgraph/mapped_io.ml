exception Parse_error of int * string

let fail line fmt = Printf.ksprintf (fun s -> raise (Parse_error (line, s))) fmt

let print cfg ppf (mapped : Config.mapped) =
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun w ->
      Format.fprintf ppf "budget %s %g@," (Config.task_name cfg w)
        (mapped.Config.budget w))
    (Config.all_tasks cfg);
  List.iter
    (fun b ->
      Format.fprintf ppf "capacity %s %d@," (Config.buffer_name cfg b)
        (mapped.Config.capacity b))
    (Config.all_buffers cfg);
  Format.fprintf ppf "@]"

let words line =
  String.split_on_char ' ' line
  |> List.concat_map (String.split_on_char '\t')
  |> List.filter (fun w -> w <> "")

let parse cfg text =
  let budgets = Hashtbl.create 16 and capacities = Hashtbl.create 16 in
  List.iteri
    (fun idx line ->
      let lineno = idx + 1 in
      match words line with
      | [] -> ()
      | head :: _ when String.length head > 0 && head.[0] = '#' -> ()
      | [ "budget"; name; value ] -> begin
        match Config.find_task cfg name with
        | exception Not_found -> fail lineno "unknown task %S" name
        | w -> begin
          match float_of_string_opt value with
          | None -> fail lineno "budget of %s: %S is not a number" name value
          | Some v when v <= 0.0 ->
            fail lineno "budget of %s must be > 0" name
          | Some v when not (Float.is_finite v) ->
            fail lineno "budget of %s must be finite" name
          | Some v ->
            if Hashtbl.mem budgets (Config.task_id w) then
              fail lineno "duplicate budget for %s" name
            else Hashtbl.replace budgets (Config.task_id w) v
        end
      end
      | [ "capacity"; name; value ] -> begin
        match Config.find_buffer cfg name with
        | exception Not_found -> fail lineno "unknown buffer %S" name
        | b -> begin
          match int_of_string_opt value with
          | None ->
            fail lineno "capacity of %s: %S is not an integer" name value
          | Some v when v < Int.max 1 (Config.initial_tokens cfg b) ->
            fail lineno "capacity of %s below its initial tokens" name
          | Some v ->
            if Hashtbl.mem capacities (Config.buffer_id b) then
              fail lineno "duplicate capacity for %s" name
            else Hashtbl.replace capacities (Config.buffer_id b) v
        end
      end
      | _ -> fail lineno "expected 'budget <task> <value>' or 'capacity <buffer> <n>'")
    (String.split_on_char '\n' text);
  (* Missing assignments have no line of their own; keep the 1-based
     convention by blaming the last line of the input. *)
  let last_line = max 1 (List.length (String.split_on_char '\n' text)) in
  List.iter
    (fun w ->
      if not (Hashtbl.mem budgets (Config.task_id w)) then
        fail last_line "missing budget for task %s" (Config.task_name cfg w))
    (Config.all_tasks cfg);
  List.iter
    (fun b ->
      if not (Hashtbl.mem capacities (Config.buffer_id b)) then
        fail last_line "missing capacity for buffer %s" (Config.buffer_name cfg b))
    (Config.all_buffers cfg);
  {
    Config.budget = (fun w -> Hashtbl.find budgets (Config.task_id w));
    Config.capacity = (fun b -> Hashtbl.find capacities (Config.buffer_id b));
  }

let parse_file cfg path =
  let ic = open_in path in
  let len = in_channel_length ic in
  let content = really_input_string ic len in
  close_in ic;
  parse cfg content
