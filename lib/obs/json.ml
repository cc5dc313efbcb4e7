(* One flat JSON object per line: the codec of the trace sink and of the
   serve wire and worker pipes.  A tiny parser for exactly this shape —
   objects one level deep of strings, numbers and booleans — not a
   general JSON library; anything else is an [Error]. *)

type value = String of string | Number of float | Int of int | Bool of bool
type obj = (string * value) list

(* ---- encoding ---------------------------------------------------- *)

let add_string b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let render obj =
  let b = Buffer.create 128 in
  Buffer.add_char b '{';
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char b ',';
      add_string b k;
      Buffer.add_char b ':';
      match v with
      | String s -> add_string b s
      | Number f ->
        if not (Float.is_finite f) then
          invalid_arg "Obs.Json.render: non-finite number";
        Buffer.add_string b (Printf.sprintf "%.17g" f)
      | Int i -> Buffer.add_string b (string_of_int i)
      | Bool v -> Buffer.add_string b (if v then "true" else "false"))
    obj;
  Buffer.add_char b '}';
  Buffer.contents b

(* ---- decoding ---------------------------------------------------- *)

exception Bad of string

let parse line =
  let len = String.length line in
  let pos = ref 0 in
  let fail msg = raise (Bad msg) in
  let peek () = if !pos >= len then fail "truncated" else line.[!pos] in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < len
      && (match line.[!pos] with ' ' | '\t' | '\r' -> true | _ -> false)
    do
      advance ()
    done
  in
  let expect c =
    if peek () <> c then fail (Printf.sprintf "expected '%c'" c) else advance ()
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | '"' -> advance ()
      | '\\' ->
        advance ();
        (match peek () with
        | '"' -> Buffer.add_char b '"'
        | '\\' -> Buffer.add_char b '\\'
        | '/' -> Buffer.add_char b '/'
        | 'n' -> Buffer.add_char b '\n'
        | 'r' -> Buffer.add_char b '\r'
        | 't' -> Buffer.add_char b '\t'
        | 'u' ->
          if !pos + 4 >= len then fail "truncated escape";
          let hex = String.sub line (!pos + 1) 4 in
          let code =
            match int_of_string_opt ("0x" ^ hex) with
            | Some c when c < 0x80 -> c
            | Some _ | None -> fail "unsupported \\u escape"
          in
          pos := !pos + 4;
          Buffer.add_char b (Char.chr code)
        | _ -> fail "bad escape");
        advance ();
        go ()
      | c ->
        Buffer.add_char b c;
        advance ();
        go ()
    in
    go ();
    Buffer.contents b
  in
  let literal word v =
    let n = String.length word in
    if !pos + n <= len && String.sub line !pos n = word then begin
      pos := !pos + n;
      v
    end
    else fail "bad literal"
  in
  let parse_value () =
    skip_ws ();
    match peek () with
    | '"' -> String (parse_string ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | '-' | '0' .. '9' ->
      let start = !pos in
      while
        !pos < len
        &&
        match line.[!pos] with
        | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
        | _ -> false
      do
        advance ()
      done;
      (match float_of_string_opt (String.sub line start (!pos - start)) with
      | Some f when Float.is_finite f -> Number f
      | Some _ | None -> fail "bad number")
    | '{' | '[' -> fail "nested values not allowed"
    | _ -> fail "bad value"
  in
  match
    skip_ws ();
    expect '{';
    let rec pairs acc =
      skip_ws ();
      match peek () with
      | '}' ->
        advance ();
        List.rev acc
      | _ ->
        let k = parse_string () in
        if List.mem_assoc k acc then fail "duplicate key";
        skip_ws ();
        expect ':';
        let v = parse_value () in
        skip_ws ();
        (match peek () with
        | ',' ->
          advance ();
          pairs ((k, v) :: acc)
        | '}' ->
          advance ();
          List.rev ((k, v) :: acc)
        | _ -> fail "expected ',' or '}'")
    in
    let obj = pairs [] in
    skip_ws ();
    if !pos <> len then fail "trailing garbage";
    obj
  with
  | obj -> Ok obj
  | exception Bad msg -> Error msg

(* ---- accessors --------------------------------------------------- *)

let str obj k =
  match List.assoc_opt k obj with Some (String s) -> Some s | _ -> None

let number obj k =
  match List.assoc_opt k obj with Some (Number f) -> Some f | _ -> None

let int obj k =
  match number obj k with
  | Some f ->
    let i = int_of_float f in
    if float_of_int i = f then Some i else None
  | None -> None

let bool obj k =
  match List.assoc_opt k obj with Some (Bool v) -> Some v | _ -> None
