(* LP/MPS text codec for conic models.

   The exporter writes a *canonical* rendering: variables in
   declaration order (pinned by listing every variable in the bounds
   section), rows in insertion order, terms merged and sorted by
   variable index, coefficients as "%.17g" (bit-exact float round
   trip).  The parsers are total — any damage yields [Error _], never
   an exception — and accept exactly the dialect the exporter writes
   plus a few benign spelling variants.  On canonical input,
   parse-then-re-export is byte-identical; that identity is the
   contract the differential tests pin. *)

type rel = Ge | Le | Eq
type bound = Free | Fixed of float

type row = {
  row_name : string;
  linear : (float * int) list;
  quad : (float * int * int) list;
  rel : rel;
  rhs : float;
}

type t = {
  name : string;
  vars : string array;
  bounds : bound array;
  objective : (float * int) list;
  obj_const : float;
  rows : row list;
}

(* ---- canonicalisation -------------------------------------------- *)

let merge_linear terms =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (k, v) ->
      let cur = try Hashtbl.find tbl v with Not_found -> 0.0 in
      Hashtbl.replace tbl v (cur +. k))
    terms;
  Hashtbl.fold (fun v k acc -> if k = 0.0 then acc else (k, v) :: acc) tbl []
  |> List.sort (fun (_, a) (_, b) -> compare a b)

let merge_quad terms =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (k, i, j) ->
      let key = if i <= j then (i, j) else (j, i) in
      let cur = try Hashtbl.find tbl key with Not_found -> 0.0 in
      Hashtbl.replace tbl key (cur +. k))
    terms;
  Hashtbl.fold
    (fun (i, j) k acc -> if k = 0.0 then acc else (k, i, j) :: acc)
    tbl []
  |> List.sort (fun (_, a, b) (_, c, d) -> compare (a, b) (c, d))

(* [t] with merged, index-sorted terms, zero coefficients and empty rows
   dropped, and the name trimmed: the form every writer and [equal]
   work on. *)
let canon t =
  let name =
    let s =
      String.map (fun c -> if Char.code c < 0x20 then '_' else c) t.name
      |> String.trim
    in
    if s = "" then "model" else s
  in
  {
    t with
    name;
    objective = merge_linear t.objective;
    rows =
      List.filter_map
        (fun r ->
          let linear = merge_linear r.linear and quad = merge_quad r.quad in
          if linear = [] && quad = [] then None
          else Some { r with linear; quad })
        t.rows;
  }

let equal a b = canon a = canon b

(* ---- number rendering -------------------------------------------- *)

let fstr f =
  if Float.is_finite f then Printf.sprintf "%.17g" f
  else if Float.is_nan f then "nan"
  else if f > 0.0 then "inf"
  else "-inf"

(* ---- MPS writer -------------------------------------------------- *)

let to_mps t0 =
  let t = canon t0 in
  let b = Buffer.create 1024 in
  let pr fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  pr "NAME %s\n" t.name;
  pr "ROWS\n";
  pr " N obj\n";
  List.iter
    (fun r ->
      pr " %s %s\n"
        (match r.rel with Ge -> "G" | Le -> "L" | Eq -> "E")
        r.row_name)
    t.rows;
  pr "COLUMNS\n";
  Array.iteri
    (fun v name ->
      List.iter
        (fun (k, v') -> if v' = v then pr " %s obj %s\n" name (fstr k))
        t.objective;
      List.iter
        (fun r ->
          List.iter
            (fun (k, v') ->
              if v' = v then pr " %s %s %s\n" name r.row_name (fstr k))
            r.linear)
        t.rows)
    t.vars;
  pr "RHS\n";
  if t.obj_const <> 0.0 then pr " RHS obj %s\n" (fstr (-.t.obj_const));
  List.iter
    (fun r -> if r.rhs <> 0.0 then pr " RHS %s %s\n" r.row_name (fstr r.rhs))
    t.rows;
  pr "BOUNDS\n";
  Array.iteri
    (fun v name ->
      match t.bounds.(v) with
      | Free -> pr " FR BND %s\n" name
      | Fixed x -> pr " FX BND %s %s\n" name (fstr x))
    t.vars;
  List.iter
    (fun r ->
      if r.quad <> [] then begin
        pr "QCMATRIX %s\n" r.row_name;
        List.iter
          (fun (k, i, j) ->
            if i = j then pr " %s %s %s\n" t.vars.(i) t.vars.(j) (fstr k)
            else begin
              (* CPLEX reads QCMATRIX as x'Qx with Q symmetric, so the
                 cross term k·xᵢ·xⱼ is Qᵢⱼ = Qⱼᵢ = k/2, both written.
                 Splitting as (k − k/2, k/2) keeps the sum bit-exact
                 even when k/2 rounds (subnormal k); the parser's merge
                 folds the halves back into a single canonical term. *)
              let half = k /. 2.0 in
              pr " %s %s %s\n" t.vars.(i) t.vars.(j) (fstr (k -. half));
              pr " %s %s %s\n" t.vars.(j) t.vars.(i) (fstr half)
            end)
          r.quad
      end)
    t.rows;
  pr "ENDATA\n";
  Buffer.contents b

(* ---- LP writer --------------------------------------------------- *)

(* Sign-separated term stream: the first term renders its coefficient
   verbatim ("-2 x0"); later terms render " + |k| v" / " - |k| v".
   NaN counts as non-negative, which keeps the rendering stable under
   reparse. *)
let add_lp_term b ~first k body =
  if first then Buffer.add_string b (Printf.sprintf "%s %s" (fstr k) body)
  else if k < 0.0 then
    Buffer.add_string b (Printf.sprintf " - %s %s" (fstr (Float.abs k)) body)
  else Buffer.add_string b (Printf.sprintf " + %s %s" (fstr k) body)

let lp_expr vars ?(quad = []) ?(const = 0.0) linear =
  let b = Buffer.create 64 in
  let first = ref true in
  if quad <> [] then begin
    Buffer.add_string b "[ ";
    List.iter
      (fun (k, i, j) ->
        let body =
          if i = j then Printf.sprintf "%s ^ 2" vars.(i)
          else Printf.sprintf "%s * %s" vars.(i) vars.(j)
        in
        add_lp_term b ~first:!first k body;
        first := false)
      quad;
    Buffer.add_string b " ]";
    first := false
  end;
  List.iter
    (fun (k, v) ->
      add_lp_term b ~first:!first k vars.(v);
      first := false)
    linear;
  if const <> 0.0 then begin
    add_lp_term b ~first:!first const "";
    (* trim the trailing space a bare constant leaves behind *)
    first := false
  end;
  if !first then Buffer.add_string b "0";
  let s = Buffer.contents b in
  if String.length s > 0 && s.[String.length s - 1] = ' ' then
    String.sub s 0 (String.length s - 1)
  else s

let to_lp t0 =
  let t = canon t0 in
  let b = Buffer.create 1024 in
  let pr fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  pr "\\Problem name: %s\n" t.name;
  pr "Minimize\n";
  pr " obj: %s\n" (lp_expr t.vars ~const:t.obj_const t.objective);
  pr "Subject To\n";
  List.iter
    (fun r ->
      pr " %s: %s %s %s\n" r.row_name
        (lp_expr t.vars ~quad:r.quad r.linear)
        (match r.rel with Ge -> ">=" | Le -> "<=" | Eq -> "=")
        (fstr r.rhs))
    t.rows;
  pr "Bounds\n";
  Array.iteri
    (fun v name ->
      match t.bounds.(v) with
      | Free -> pr " %s free\n" name
      | Fixed x -> pr " %s = %s\n" name (fstr x))
    t.vars;
  pr "End\n";
  Buffer.contents b

(* ---- total parsing ----------------------------------------------- *)

exception Parse of string

let fail fmt = Printf.ksprintf (fun s -> raise (Parse s)) fmt

let num_of tok =
  match float_of_string_opt tok with
  | Some f -> f
  | None -> fail "bad number %S" tok

let split_tokens line =
  String.split_on_char ' ' line
  |> List.concat_map (String.split_on_char '\t')
  |> List.filter (fun s -> s <> "")

let split_lines text =
  String.split_on_char '\n' text
  |> List.map (fun l ->
         let n = String.length l in
         if n > 0 && l.[n - 1] = '\r' then String.sub l 0 (n - 1) else l)

(* Resolve name-keyed terms against the bounds-ordered variable list. *)
let resolver vars =
  let tbl = Hashtbl.create 16 in
  Array.iteri
    (fun i v ->
      if Hashtbl.mem tbl v then fail "duplicate variable %S" v;
      Hashtbl.replace tbl v i)
    vars;
  fun name ->
    match Hashtbl.find_opt tbl name with
    | Some i -> i
    | None -> fail "unknown variable %S" name

(* -- MPS ----------------------------------------------------------- *)

type mps_section =
  | M_preamble
  | M_rows
  | M_columns
  | M_rhs
  | M_bounds
  | M_qc of string
  | M_done

let of_mps_result text =
  try
    let name = ref "model" in
    let section = ref M_preamble in
    let obj_row = ref None in
    let row_decls = ref [] (* reversed: (name, rel) *)
    and col_entries = ref [] (* reversed: (var, row, coef) *)
    and rhs_entries = ref [] (* reversed: (row, value) *)
    and bound_decls = ref [] (* reversed: (var, bound) *)
    and qc_entries = ref [] (* reversed: (row, v1, v2, coef) *) in
    let row_names = Hashtbl.create 16 in
    let declare_row nm rel =
      if Hashtbl.mem row_names nm then fail "duplicate row %S" nm;
      Hashtbl.replace row_names nm ();
      match rel with
      | None ->
        if !obj_row <> None then fail "multiple objective rows";
        obj_row := Some nm
      | Some r -> row_decls := (nm, r) :: !row_decls
    in
    List.iter
      (fun line ->
        let trimmed = String.trim line in
        if trimmed = "" || trimmed.[0] = '*' then ()
        else if line.[0] = ' ' || line.[0] = '\t' then begin
          (* data line in the current section *)
          let toks = split_tokens line in
          match (!section, toks) with
          | M_rows, [ "N"; nm ] -> declare_row nm None
          | M_rows, [ "G"; nm ] -> declare_row nm (Some Ge)
          | M_rows, [ "L"; nm ] -> declare_row nm (Some Le)
          | M_rows, [ "E"; nm ] -> declare_row nm (Some Eq)
          | M_columns, var :: rest ->
            let rec pairs = function
              | [] -> ()
              | row :: value :: more ->
                col_entries := (var, row, num_of value) :: !col_entries;
                pairs more
              | [ _ ] -> fail "odd COLUMNS entry"
            in
            if rest = [] then fail "empty COLUMNS entry";
            pairs rest
          | M_rhs, [ _set; row; value ] ->
            rhs_entries := (row, num_of value) :: !rhs_entries
          | M_bounds, [ "FR"; _set; var ] ->
            bound_decls := (var, Free) :: !bound_decls
          | M_bounds, [ "FX"; _set; var; value ] ->
            bound_decls := (var, Fixed (num_of value)) :: !bound_decls
          | M_qc row, [ v1; v2; value ] ->
            qc_entries := (row, v1, v2, num_of value) :: !qc_entries
          | M_done, _ -> fail "content after ENDATA"
          | _, _ -> fail "malformed line %S" trimmed
        end
        else begin
          let toks = split_tokens trimmed in
          match toks with
          | "NAME" :: _ ->
            (* keep the raw remainder: interior whitespace is part of
               the model name, and tokenise-rejoin would break the
               byte-identical re-export of names the writer itself
               produced *)
            let rest =
              String.trim
                (String.sub trimmed 4 (String.length trimmed - 4))
            in
            name := (if rest = "" then "model" else rest)
          | [ "ROWS" ] -> section := M_rows
          | [ "COLUMNS" ] -> section := M_columns
          | [ "RHS" ] -> section := M_rhs
          | [ "BOUNDS" ] -> section := M_bounds
          | [ "QCMATRIX"; row ] -> section := M_qc row
          | [ "ENDATA" ] -> section := M_done
          | s :: _ -> fail "unsupported section %S" s
          | [] -> ()
        end)
      (split_lines text);
    if !section <> M_done then fail "missing ENDATA";
    let obj_row =
      match !obj_row with Some r -> r | None -> fail "no objective row"
    in
    let vars = Array.of_list (List.rev_map fst !bound_decls) in
    let bounds = Array.of_list (List.rev_map snd !bound_decls) in
    let var_index = resolver vars in
    let row_decls = List.rev !row_decls in
    let objective = ref [] and per_row = Hashtbl.create 16 in
    List.iter (fun (nm, _) -> Hashtbl.replace per_row nm (ref [], ref [])) row_decls;
    let row_lists nm =
      match Hashtbl.find_opt per_row nm with
      | Some lists -> lists
      | None -> fail "unknown row %S" nm
    in
    List.iter
      (fun (var, row, k) ->
        let term = (k, var_index var) in
        if row = obj_row then objective := term :: !objective
        else
          let lin, _ = row_lists row in
          lin := term :: !lin)
      (List.rev !col_entries);
    List.iter
      (fun (row, v1, v2, k) ->
        if row = obj_row then fail "quadratic objective not supported";
        let _, quad = row_lists row in
        quad := (k, var_index v1, var_index v2) :: !quad)
      (List.rev !qc_entries);
    let rhs_tbl = Hashtbl.create 16 in
    let obj_const = ref 0.0 in
    List.iter
      (fun (row, v) ->
        if row = obj_row then obj_const := -.v
        else begin
          if not (Hashtbl.mem per_row row) then fail "unknown row %S" row;
          Hashtbl.replace rhs_tbl row v
        end)
      (List.rev !rhs_entries);
    let rows =
      List.map
        (fun (nm, rel) ->
          let lin, quad = row_lists nm in
          {
            row_name = nm;
            linear = List.rev !lin;
            quad = List.rev !quad;
            rel;
            rhs =
              (match Hashtbl.find_opt rhs_tbl nm with
              | Some v -> v
              | None -> 0.0);
          })
        row_decls
    in
    Ok
      {
        name = !name;
        vars;
        bounds;
        objective = List.rev !objective;
        obj_const = !obj_const;
        rows;
      }
  with Parse m -> Error m

(* -- LP ------------------------------------------------------------ *)

let lp_keyword line =
  match String.lowercase_ascii (String.trim line) with
  | "minimize" | "min" -> Some `Minimize
  | "maximize" | "max" -> Some `Maximize
  | "subject to" | "st" | "s.t." | "such that" -> Some `Subject
  | "bounds" -> Some `Bounds
  | "end" -> Some `End
  | _ -> None

let is_lp_punct = function
  | "+" | "-" | "[" | "]" | "^" | "*" | "<=" | ">=" | "=" | "<" | ">" -> true
  | _ -> false

let is_lp_rel = function "<=" | ">=" | "=" | "<" | ">" -> true | _ -> false

let lp_rel_of = function
  | ">=" | ">" -> Ge
  | "<=" | "<" -> Le
  | "=" -> Eq
  | tok -> fail "bad relation %S" tok

let is_lp_name tok =
  tok <> "" && (not (is_lp_punct tok)) && float_of_string_opt tok = None

(* Parse a sign-separated term stream up to (not including) a relation
   token.  Quadratic terms live inside a single [ ... ] group; bare
   numbers accumulate into the constant.  Returns name-keyed terms. *)
let parse_lp_expr ~allow_quad toks =
  let linear = ref [] and quad = ref [] and const = ref 0.0 in
  let rec term ~in_quad ~first sign = function
    | [] ->
      if not first then fail "dangling sign";
      if in_quad then fail "unterminated [";
      []
    | tok :: rest when is_lp_rel tok ->
      if not first then fail "dangling sign";
      if in_quad then fail "unterminated [";
      tok :: rest
    | "+" :: rest -> term ~in_quad ~first:false sign rest
    | "-" :: rest -> term ~in_quad ~first:false (-.sign) rest
    | "[" :: rest ->
      if in_quad then fail "nested [";
      if not allow_quad then fail "quadratic term not allowed here";
      if sign < 0.0 then fail "negated quadratic group";
      let rest = term ~in_quad:true ~first:true 1.0 rest in
      term ~in_quad:false ~first:true 1.0 rest
    | "]" :: rest ->
      if not in_quad then fail "stray ]";
      rest
    | tok :: rest -> begin
      let coef, rest =
        match float_of_string_opt tok with
        | Some f -> (sign *. f, rest)
        | None -> (sign, tok :: rest)
      in
      match rest with
      | v :: more when is_lp_name v -> begin
        match more with
        | "^" :: "2" :: more ->
          if not in_quad then fail "quadratic term outside [ ]";
          quad := (coef, v, v) :: !quad;
          term ~in_quad ~first:true 1.0 more
        | "*" :: w :: more when is_lp_name w ->
          if not in_quad then fail "quadratic term outside [ ]";
          quad := (coef, v, w) :: !quad;
          term ~in_quad ~first:true 1.0 more
        | _ ->
          if in_quad then fail "linear term inside [ ]";
          linear := (coef, v) :: !linear;
          term ~in_quad ~first:true 1.0 more
      end
      | _ ->
        (* bare constant *)
        if tok = "" || float_of_string_opt tok = None then
          fail "bad term %S" tok;
        if in_quad then fail "constant inside [ ]";
        const := !const +. coef;
        term ~in_quad ~first:true 1.0 rest
    end
  in
  let rest = term ~in_quad:false ~first:true 1.0 toks in
  (List.rev !linear, List.rev !quad, !const, rest)

let of_lp_result text =
  try
    let name = ref "model" in
    let obj_tokens = ref [] (* reversed *)
    and row_lines = ref [] (* reversed *)
    and bound_lines = ref [] (* reversed *) in
    let phase = ref `Start in
    List.iter
      (fun line ->
        let trimmed = String.trim line in
        if trimmed = "" then ()
        else if trimmed.[0] = '\\' then begin
          let prefix = "\\Problem name:" in
          if
            String.length trimmed >= String.length prefix
            && String.sub trimmed 0 (String.length prefix) = prefix
          then
            let rest =
              String.sub trimmed (String.length prefix)
                (String.length trimmed - String.length prefix)
              |> String.trim
            in
            if rest <> "" then name := rest
        end
        else
          match lp_keyword trimmed with
          | Some `Minimize ->
            if !phase <> `Start then fail "misplaced Minimize";
            phase := `Objective
          | Some `Maximize -> fail "maximization not supported"
          | Some `Subject ->
            if !phase <> `Objective then fail "misplaced Subject To";
            phase := `Rows
          | Some `Bounds ->
            if !phase <> `Rows then fail "misplaced Bounds";
            phase := `Bounds
          | Some `End ->
            if !phase <> `Rows && !phase <> `Bounds then fail "misplaced End";
            phase := `Done
          | None -> begin
            match !phase with
            | `Start -> fail "expected Minimize"
            | `Objective ->
              obj_tokens := List.rev_append (split_tokens trimmed) !obj_tokens
            | `Rows -> row_lines := trimmed :: !row_lines
            | `Bounds -> bound_lines := trimmed :: !bound_lines
            | `Done -> fail "content after End"
          end)
      (split_lines text);
    if !phase <> `Done then fail "missing End";
    let bounds_decl =
      List.rev_map
        (fun line ->
          match split_tokens line with
          | [ v; "free" ] when is_lp_name v -> (v, Free)
          | [ v; "="; value ] when is_lp_name v -> (v, Fixed (num_of value))
          | _ -> fail "bad bound %S" line)
        !bound_lines
    in
    let vars = Array.of_list (List.map fst bounds_decl) in
    let bounds = Array.of_list (List.map snd bounds_decl) in
    let var_index = resolver vars in
    let obj_tokens =
      match List.rev !obj_tokens with
      | label :: rest
        when String.length label > 0 && label.[String.length label - 1] = ':'
        ->
        rest
      | toks -> toks
    in
    let obj_linear, obj_quad, obj_const, obj_rest =
      parse_lp_expr ~allow_quad:false obj_tokens
    in
    if obj_quad <> [] then fail "quadratic objective not supported";
    if obj_rest <> [] then fail "trailing tokens after objective";
    let row_names = Hashtbl.create 16 in
    let rows =
      List.mapi
        (fun i line ->
          let toks = split_tokens line in
          let row_name, toks =
            match toks with
            | label :: rest
              when String.length label > 1
                   && label.[String.length label - 1] = ':' ->
              (String.sub label 0 (String.length label - 1), rest)
            | _ -> (Printf.sprintf "c%d" i, toks)
          in
          if Hashtbl.mem row_names row_name then
            fail "duplicate row %S" row_name;
          Hashtbl.replace row_names row_name ();
          let linear, quad, const, rest =
            parse_lp_expr ~allow_quad:true toks
          in
          let rel, rhs =
            match rest with
            | [ r; value ] when is_lp_rel r -> (lp_rel_of r, num_of value)
            | _ -> fail "missing relation in %S" line
          in
          {
            row_name;
            linear = List.map (fun (k, v) -> (k, var_index v)) linear;
            quad =
              List.map (fun (k, a, b) -> (k, var_index a, var_index b)) quad;
            rel;
            rhs = rhs -. const;
          })
        (List.rev !row_lines)
    in
    Ok
      {
        name = !name;
        vars;
        bounds;
        objective = List.map (fun (k, v) -> (k, var_index v)) obj_linear;
        obj_const;
        rows;
      }
  with Parse m -> Error m

let of_string_result text =
  let rec first_word i =
    if i >= String.length text then ""
    else
      match text.[i] with
      | ' ' | '\t' | '\n' | '\r' -> first_word (i + 1)
      | _ ->
        let j = ref i in
        while
          !j < String.length text
          &&
          match text.[!j] with ' ' | '\t' | '\n' | '\r' -> false | _ -> true
        do
          incr j
        done;
        String.sub text i (!j - i)
  in
  match String.uppercase_ascii (first_word 0) with
  | "NAME" | "ROWS" | "*" -> of_mps_result text
  | w when String.length w > 0 && w.[0] = '*' -> of_mps_result text
  | _ -> of_lp_result text

(* ---- model export ------------------------------------------------ *)

let sanitize_var raw =
  let s = if raw = "" then "v" else raw in
  let s =
    String.map
      (fun c ->
        match c with
        | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' -> c
        | _ -> '_')
      s
  in
  let s =
    match s.[0] with 'A' .. 'Z' | 'a' .. 'z' | '_' -> s | _ -> "v" ^ s
  in
  (* a name the LP lexer would read as a number or keyword is renamed *)
  if float_of_string_opt s <> None || String.lowercase_ascii s = "free" then
    "v_" ^ s
  else s

(* Expand e⊗e for an affine e = (terms, k): every ordered pair of
   terms contributes once (merge_quad folds (i,j)/(j,i) together),
   plus the 2k·cᵢxᵢ linear part and the k² constant. *)
let square_expr sign (terms, k) =
  let quad =
    List.concat_map
      (fun (ci, vi) ->
        List.map (fun (cj, vj) -> (sign *. ci *. cj, vi, vj)) terms)
      terms
  in
  let linear = List.map (fun (ci, vi) -> (sign *. 2.0 *. k *. ci, vi)) terms in
  (quad, linear, sign *. k *. k)

let of_model ?(name = "model") m =
  let snap = Model.snapshot m in
  let used = Hashtbl.create 16 in
  let vars =
    Array.map
      (fun raw ->
        let base = sanitize_var raw in
        let rec fresh cand k =
          if Hashtbl.mem used cand then
            fresh (Printf.sprintf "%s_%d" base k) (k + 1)
          else cand
        in
        let nm = fresh base 2 in
        Hashtbl.replace used nm ();
        nm)
      snap.Model.snap_vars
  in
  let bounds = Array.make (Array.length vars) Free in
  List.iter (fun (v, x) -> bounds.(v) <- Fixed x) snap.Model.snap_fixed;
  let next = ref 0 in
  let fresh_row () =
    let nm = Printf.sprintf "c%d" !next in
    incr next;
    nm
  in
  let rows =
    List.concat_map
      (function
        | `Nonneg (terms, k) ->
          if terms = [] then []
          else
            [
              {
                row_name = fresh_row ();
                linear = terms;
                quad = [];
                rel = Ge;
                rhs = -.k;
              };
            ]
        | `Soc [] -> []
        | `Soc ((head_terms, head_k) :: tail) ->
          (* ‖tail‖ ≤ head splits into the linear face head ≥ 0 and
             the quadratic face head² − Σ tailᵢ² ≥ 0 *)
          let head_row =
            if head_terms = [] then []
            else
              [
                {
                  row_name = fresh_row ();
                  linear = head_terms;
                  quad = [];
                  rel = Ge;
                  rhs = -.head_k;
                };
              ]
          in
          let quad, linear, const =
            List.fold_left
              (fun (q, l, c) e ->
                let q', l', c' = square_expr (-1.0) e in
                (q' @ q, l' @ l, c +. c'))
              (square_expr 1.0 (head_terms, head_k))
              tail
          in
          let quad_row =
            if merge_quad quad = [] && merge_linear linear = [] then []
            else
              [
                {
                  row_name = fresh_row ();
                  linear;
                  quad;
                  rel = Ge;
                  rhs = -.const;
                };
              ]
          in
          head_row @ quad_row)
      snap.Model.snap_rows
  in
  let obj_terms, obj_const = snap.Model.snap_objective in
  canon { name; vars; bounds; objective = obj_terms; obj_const; rows }
