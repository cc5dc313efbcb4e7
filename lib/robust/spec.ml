type 'a key = {
  key : string;
  set : 'a -> string -> ('a, string) result;
  show : 'a -> string option;
}

type ('k, 'a) t = {
  name : string;
  kinds : ('k * string) list;
  plan : 'k -> 'a;
  kind : 'a -> 'k;
  keys : 'a key list;
  positional : int;
}

let kind_name t k = List.assoc k t.kinds

(* "a, b or c" *)
let expected t =
  match List.rev_map snd t.kinds with
  | [] -> ""
  | last :: rest -> String.concat ", " (List.rev rest) ^ " or " ^ last

let parse t spec =
  match String.split_on_char ',' (String.trim spec) with
  | [] | [ "" ] -> Error (Printf.sprintf "empty %s spec" t.name)
  | kind :: opts -> (
    let kind = String.trim kind in
    match List.find_opt (fun (_, name) -> name = kind) t.kinds with
    | None ->
      Error
        (Printf.sprintf "unknown %s kind %S (expected %s)" t.name kind
           (expected t))
    | Some (k, _) ->
      let option plan ~bare opt =
        match String.index_opt opt '=' with
        | Some i -> (
          let key = String.trim (String.sub opt 0 i) in
          let value = String.sub opt (i + 1) (String.length opt - i - 1) in
          match List.find_opt (fun o -> o.key = key) t.keys with
          | Some o -> o.set plan value
          | None -> Error (Printf.sprintf "unknown option %S" key))
        | None when bare < t.positional -> (List.nth t.keys bare).set plan opt
        | None when t.positional = 0 ->
          Error (Printf.sprintf "malformed option %S" opt)
        | None -> Error (Printf.sprintf "unexpected option %S" opt)
      in
      let rec go plan ~bare = function
        | [] -> Ok plan
        | opt :: rest -> (
          match option plan ~bare opt with
          | Ok plan ->
            let bare = if String.contains opt '=' then bare else bare + 1 in
            go plan ~bare rest
          | Error msg -> Error (Printf.sprintf "%s spec: %s" t.name msg))
      in
      go (t.plan k) ~bare:0 opts)

let to_string t plan =
  String.concat ","
    (kind_name t (t.kind plan)
    :: List.filter_map
         (fun o -> Option.map (fun v -> o.key ^ "=" ^ v) (o.show plan))
         t.keys)

let of_env t ~var =
  match Sys.getenv_opt var with
  | None -> None
  | Some s when String.trim s = "" -> None
  | Some s -> (
    match parse t s with
    | Ok plan -> Some plan
    | Error msg -> invalid_arg (Printf.sprintf "%s: %s" var msg))

let int_key key ~at_least ~get ~set =
  let ok, what =
    match at_least with
    | `Any -> ((fun _ -> true), "an integer")
    | `Zero -> ((fun n -> n >= 0), "a non-negative integer")
    | `One -> ((fun n -> n >= 1), "a positive integer")
  in
  {
    key;
    set =
      (fun plan raw ->
        match int_of_string_opt (String.trim raw) with
        | Some n when ok n -> Ok (set plan n)
        | Some _ | None ->
          Error (Printf.sprintf "%s expects %s, got %S" key what raw));
    show = (fun plan -> Option.map string_of_int (get plan));
  }
