type var = int

type expr = { terms : (float * var) list; const : float }

(* A cone row-block: the affine expressions whose values form one block
   of s = h − G·x. *)
type block = Row_nonneg of expr | Row_soc of expr list

type model = {
  mutable names : string list; (* reversed *)
  mutable nvars : int;
  mutable blocks : block list; (* reversed *)
  mutable objective : expr;
  fixed : (var, float) Hashtbl.t;
}

let create () =
  {
    names = [];
    nvars = 0;
    blocks = [];
    objective = { terms = []; const = 0.0 };
    fixed = Hashtbl.create 8;
  }

let variable m name =
  let v = m.nvars in
  m.names <- name :: m.names;
  m.nvars <- m.nvars + 1;
  v

let var v = { terms = [ (1.0, v) ]; const = 0.0 }
let const k = { terms = []; const = k }
let term k v = { terms = [ (k, v) ]; const = 0.0 }
let add e1 e2 = { terms = e1.terms @ e2.terms; const = e1.const +. e2.const }
let neg e = { terms = List.map (fun (k, v) -> (-.k, v)) e.terms; const = -.e.const }
let sub e1 e2 = add e1 (neg e2)

let scale k e =
  { terms = List.map (fun (c, v) -> (k *. c, v)) e.terms; const = k *. e.const }

let sum es = List.fold_left add (const 0.0) es
let affine ?(const = 0.0) terms = { terms; const }

let add_ge0 m e = m.blocks <- Row_nonneg e :: m.blocks
let add_le m e1 e2 = add_ge0 m (sub e2 e1)
let add_ge m e1 e2 = add_ge0 m (sub e1 e2)

let add_eq m e1 e2 =
  add_le m e1 e2;
  add_ge m e1 e2

let add_soc m ~head ~tail = m.blocks <- Row_soc (head :: tail) :: m.blocks

let add_hyperbolic m ~a ~b ~bound =
  add_soc m ~head:(add a b) ~tail:[ sub a b; const (2.0 *. bound) ]

let fix m v value =
  if v < 0 || v >= m.nvars then invalid_arg "Model.fix: foreign variable";
  Hashtbl.replace m.fixed v value

let minimize m e = m.objective <- e

let num_variables m = m.nvars

let num_rows m =
  List.fold_left
    (fun acc b ->
      acc + match b with Row_nonneg _ -> 1 | Row_soc es -> List.length es)
    0 m.blocks

type snapshot = {
  snap_vars : string array;
  snap_fixed : (int * float) list;
  snap_rows :
    [ `Nonneg of (float * int) list * float
    | `Soc of ((float * int) list * float) list ]
    list;
  snap_objective : (float * int) list * float;
}

(* Read-only structural view for the LP/MPS exporter: declaration-order
   variable names, pinned values, the row blocks in insertion order and
   the objective.  Terms are reported exactly as recorded — duplicate
   variables are not merged here; serialisers canonicalise. *)
let snapshot m =
  let expr_view (e : expr) = (e.terms, e.const) in
  {
    snap_vars = Array.of_list (List.rev m.names);
    snap_fixed =
      Hashtbl.fold (fun v x acc -> (v, x) :: acc) m.fixed []
      |> List.sort (fun (a, _) (b, _) -> compare a b);
    snap_rows =
      List.rev_map
        (function
          | Row_nonneg e ->
            let terms, const = expr_view e in
            `Nonneg (terms, const)
          | Row_soc es -> `Soc (List.map expr_view es))
        m.blocks;
    snap_objective = expr_view m.objective;
  }

type result = {
  status : Socp.status;
  objective : float;
  value : var -> float;
  raw : Socp.solution;
}

(* One expression as a row of s = h − G·x: G_row = −coeffs and
   h_row = const, with the variables pinned by [fix] substituted into
   h.  [Sparse_rows.of_rows] sums a variable's terms in their recorded
   order, and (−a) + (−b) = −(a + b) in IEEE arithmetic, so every entry
   is bit-identical to subtracting the terms one by one from a zero
   dense row. *)
let lower_row m e =
  let h = ref 0.0 in
  let entries =
    List.filter_map
      (fun (k, v) ->
        match Hashtbl.find_opt m.fixed v with
        | Some value ->
          h := !h +. (k *. value);
          None
        | None -> Some (v, -.k))
      e.terms
  in
  (entries, !h +. e.const)

(* A row block whose variables are all pinned reduces to constants: a
   satisfied constant row must be dropped (keeping it would pin a slack
   to the cone boundary and destroy the interior the IPM needs), a
   violated one proves infeasibility outright. *)
let constant_value m e =
  let rec eval acc = function
    | [] -> Some acc
    | (k, v) :: rest -> begin
      match Hashtbl.find_opt m.fixed v with
      | Some value -> eval (acc +. (k *. value)) rest
      | None -> None
    end
  in
  eval e.const e.terms

type program = {
  c : Linalg.Vec.t;
  g : Sparse_rows.t;
  h : Linalg.Vec.t;
  cone : Cone.t;
  offset : float;
}

let lower m =
  let infeasible_constant = ref false in
  let blocks =
    List.filter
      (fun b ->
        match b with
        | Row_nonneg e -> begin
          match constant_value m e with
          | None -> true
          | Some v ->
            if v < -1e-9 then infeasible_constant := true;
            false
        end
        | Row_soc es -> begin
          match
            List.fold_left
              (fun acc e ->
                match (acc, constant_value m e) with
                | Some vs, Some v -> Some (v :: vs)
                | _, _ -> None)
              (Some []) es
          with
          | None -> true
          | Some vs -> begin
            match List.rev vs with
            | head :: tail ->
              let norm =
                sqrt (List.fold_left (fun a x -> a +. (x *. x)) 0.0 tail)
              in
              if head < norm -. 1e-9 then infeasible_constant := true;
              false
            | [] -> false
          end
        end)
      (List.rev m.blocks)
  in
  if !infeasible_constant then None
  else begin
    let rows =
      List.concat_map
        (function Row_nonneg e -> [ e ] | Row_soc es -> es)
        blocks
      |> List.map (lower_row m)
      |> Array.of_list
    in
    (* Merge runs of scalar orthant rows into larger blocks for speed. *)
    let merged =
      List.fold_left
        (fun acc b ->
          match (b, acc) with
          | Row_nonneg _, Cone.Nonneg q :: rest -> Cone.Nonneg (q + 1) :: rest
          | Row_nonneg _, _ -> Cone.Nonneg 1 :: acc
          | Row_soc es, _ -> Cone.Soc (List.length es) :: acc)
        [] blocks
    in
    let c = Linalg.Vec.create m.nvars in
    let offset = ref m.objective.const in
    List.iter
      (fun (k, v) ->
        match Hashtbl.find_opt m.fixed v with
        | Some value -> offset := !offset +. (k *. value)
        | None -> c.(v) <- c.(v) +. k)
      m.objective.terms;
    Some
      {
        c;
        g = Sparse_rows.of_rows ~cols:m.nvars (Array.map fst rows);
        h = Array.map snd rows;
        cone = Cone.make (List.rev merged);
        offset = !offset;
      }
  end

let solve ?params ?deadline ?obs ?warm m =
  let fixed_or v f =
    match Hashtbl.find_opt m.fixed v with Some x -> x | None -> f v
  in
  match lower m with
  | None ->
    let dim0 = Linalg.Vec.create 0 in
    let raw =
      {
        Socp.status = Socp.Primal_infeasible;
        x = Linalg.Vec.create m.nvars;
        s = dim0;
        z = dim0;
        primal_objective = nan;
        dual_objective = nan;
        gap = nan;
        primal_residual = nan;
        dual_residual = nan;
        iterations = 0;
        kkt_fallbacks = 0;
      }
    in
    {
      status = Socp.Primal_infeasible;
      objective = nan;
      value = (fun v -> fixed_or v (fun _ -> 0.0));
      raw;
    }
  | Some { c; g; h; cone; offset } ->
    let sol = Socp.solve ?params ?deadline ?obs ?warm ~c ~g ~h cone in
    {
      status = sol.Socp.status;
      objective = sol.Socp.primal_objective +. offset;
      value =
        (fun v ->
          if v < 0 || v >= m.nvars then
            invalid_arg "Model.value: foreign variable"
          else fixed_or v (Array.get sol.Socp.x));
      raw = sol;
    }
