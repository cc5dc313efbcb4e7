(* The list-row KKT kernels the flat-array workspace ([Conic.Kkt])
   replaced, kept as the tests' reference oracle: W⁻¹·G formed row by
   row on [(column, value)] lists, the Gram pattern from a triplet
   sort, its refill through [Sparse.add], and the quadratic
   minimum-degree ordering.  The workspace and [Linalg.Sparse] must
   reproduce them bit for bit. *)

module Sparse = Linalg.Sparse
module Cone = Conic.Cone

type rows = (int * float) list array

let rows_of g = Array.init (Conic.Sparse_rows.rows g) (Conic.Sparse_rows.row g)

(* Offset and kind of every block of a scaling's cone. *)
let layout (w : Cone.scaling) =
  let off = ref 0 in
  List.mapi
    (fun bi b ->
      let o = !off in
      (match b with Cone.Nonneg d | Cone.Soc d -> off := o + d);
      (bi, o, b))
    (Cone.blocks w.Cone.cone)

(* [coeff·r] with entries that underflow to zero dropped; [r] is
   column-sorted, so the result is too. *)
let rec scale_row coeff = function
  | [] -> []
  | (j, v) :: rest ->
    let x = coeff *. v in
    if x = 0.0 then scale_row coeff rest else (j, x) :: scale_row coeff rest

(* [acc.(p) += coeff·v] over one sparse row, where [cols.(p)] is the
   entry's column.  [cols] is a sorted superset of the row's columns,
   so [p] only moves forward from [0]. *)
let rec accumulate_row acc cols coeff p = function
  | [] -> ()
  | (j, v) :: rest as row ->
    if cols.(p) < j then accumulate_row acc cols coeff (p + 1) row
    else begin
      acc.(p) <- acc.(p) +. (coeff *. v);
      accumulate_row acc cols coeff (p + 1) rest
    end

(* The rows of W⁻¹·A for the block starting at [offset]. *)
let apply_inv_rows (w : Cone.scaling) offset rows =
  let bi, o, b =
    List.find (fun (_, o, _) -> o = offset) (layout w)
  in
  let n = match b with Cone.Nonneg d | Cone.Soc d -> d in
  if Array.length rows <> n then invalid_arg "apply_inv_rows: row count";
  match b with
  | Cone.Nonneg _ ->
    Array.mapi (fun i r -> scale_row (1.0 /. w.Cone.w.(o + i)) r) rows
  | Cone.Soc _ ->
    let eta = w.Cone.eta.(bi) in
    let jv =
      Array.init n (fun i ->
          if i = 0 then w.Cone.w.(o) else -.w.Cone.w.(o + i))
    in
    let cols =
      Array.of_list
        (List.sort_uniq compare
           (Array.fold_left (fun acc r -> List.map fst r @ acc) [] rows))
    in
    let acc = Array.make (Array.length cols) 0.0 in
    Array.init n (fun i ->
        Array.fill acc 0 (Array.length acc) 0.0;
        for k = 0 to n - 1 do
          let coeff =
            ((2.0 *. jv.(i) *. jv.(k))
            -. (if i = k then if i = 0 then 1.0 else -1.0 else 0.0))
            /. eta
          in
          if coeff <> 0.0 then accumulate_row acc cols coeff 0 rows.(k)
        done;
        let out = ref [] in
        for p = Array.length cols - 1 downto 0 do
          if acc.(p) <> 0.0 then out := (cols.(p), acc.(p)) :: !out
        done;
        !out)

(* W⁻¹·G, block by block. *)
let scale_rows (w : Cone.scaling) (rows : rows) : rows =
  let scaled = Array.make (Array.length rows) [] in
  List.iter
    (fun (_, o, b) ->
      let len = match b with Cone.Nonneg d | Cone.Soc d -> d in
      let out = apply_inv_rows w o (Array.sub rows o len) in
      Array.blit out 0 scaled o len)
    (layout w);
  scaled

(* The structural pattern of the scaled Gram matrix: SOC rows take
   their block's column union, every diagonal entry is kept. *)
let gram_pattern ~n (rows : rows) ~soc =
  let structural = Array.map (fun r -> List.map fst r) rows in
  List.iter
    (fun (lo, len) ->
      let union =
        List.sort_uniq compare
          (List.concat (List.init len (fun k -> structural.(lo + k))))
      in
      for k = 0 to len - 1 do
        structural.(lo + k) <- union
      done)
    soc;
  let triplets = ref [] in
  for j = 0 to n - 1 do
    triplets := (j, j, 0.0) :: !triplets
  done;
  Array.iter
    (fun cols ->
      let rec outer = function
        | [] -> ()
        | j :: rest ->
          List.iter (fun k -> triplets := (j, k, 0.0) :: !triplets) rest;
          outer rest
      in
      outer cols)
    structural;
  Sparse.create ~n !triplets

(* Clear [into] and accumulate Σ rᵀr into its pattern. *)
let fill_gram (rows : rows) ~into =
  Sparse.clear into;
  Array.iter
    (fun entries ->
      let rec outer = function
        | [] -> ()
        | (j, vj) :: rest ->
          Sparse.add into j j (vj *. vj);
          List.iter (fun (k, vk) -> Sparse.add into j k (vj *. vk)) rest;
          outer rest
      in
      outer entries)
    rows

(* Greedy minimum degree with an O(n) scan per step: the alive vertex
   of minimum degree, smallest index first; eliminating it turns its
   alive neighbourhood into a clique. *)
let min_degree a =
  let n = Sparse.dim a in
  let colptr = Sparse.colptr a and rowind = Sparse.rowind a in
  let adj = Array.make n [||] in
  let deg = Array.make n 0 in
  for j = 0 to n - 1 do
    for p = colptr.(j) to colptr.(j + 1) - 1 do
      let i = rowind.(p) in
      if i <> j then begin
        deg.(i) <- deg.(i) + 1;
        deg.(j) <- deg.(j) + 1
      end
    done
  done;
  let fill = Array.make n 0 in
  Array.iteri (fun v d -> adj.(v) <- Array.make d 0) deg;
  for j = 0 to n - 1 do
    for p = colptr.(j) to colptr.(j + 1) - 1 do
      let i = rowind.(p) in
      if i <> j then begin
        adj.(i).(fill.(i)) <- j;
        fill.(i) <- fill.(i) + 1;
        adj.(j).(fill.(j)) <- i;
        fill.(j) <- fill.(j) + 1
      end
    done
  done;
  let alive = Array.make n true in
  let stamp = Array.make n (-1) in
  let tag = ref 0 in
  let perm = Array.make n 0 in
  let scratch = Array.make n 0 in
  for k = 0 to n - 1 do
    let best = ref (-1) in
    for v = n - 1 downto 0 do
      if alive.(v) && (!best < 0 || deg.(v) <= deg.(!best)) then best := v
    done;
    let v = !best in
    perm.(k) <- v;
    alive.(v) <- false;
    let nbrs =
      Array.of_seq (Seq.filter (fun u -> alive.(u)) (Array.to_seq adj.(v)))
    in
    Array.iter
      (fun u ->
        incr tag;
        let t = !tag in
        stamp.(u) <- t;
        let len = ref 0 in
        Array.iter
          (fun w ->
            if alive.(w) && stamp.(w) <> t then begin
              stamp.(w) <- t;
              scratch.(!len) <- w;
              incr len
            end)
          adj.(u);
        Array.iter
          (fun w ->
            if w <> u && stamp.(w) <> t then begin
              stamp.(w) <- t;
              scratch.(!len) <- w;
              incr len
            end)
          nbrs;
        adj.(u) <- Array.sub scratch 0 !len;
        deg.(u) <- !len)
      nbrs
  done;
  perm
