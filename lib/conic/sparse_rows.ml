type t = { m : int; n : int; rows : (int * float) list array }

(* Canonical row form: strictly increasing column indices, duplicates
   summed in input order, explicit zeros dropped.  Every constructor
   funnels through here so downstream consumers (Gram assembly, CSC
   patterns) can rely on sortedness instead of silently
   mis-assembling. *)
let canonical_row n entries =
  List.iter
    (fun (j, _) ->
      if j < 0 || j >= n then invalid_arg "Sparse_rows: column index out of range")
    entries;
  let sorted =
    List.stable_sort (fun (a, _) (b, _) -> Int.compare a b) entries
  in
  let merged =
    List.fold_left
      (fun acc (j, v) ->
        match acc with
        | (j', v') :: rest when j' = j -> (j, v +. v') :: rest
        | _ -> (j, v) :: acc)
      [] sorted
  in
  List.rev (List.filter (fun (_, v) -> v <> 0.0) merged)

let of_rows ~cols rows =
  if cols < 0 then invalid_arg "Sparse_rows.of_rows: negative cols";
  {
    m = Array.length rows;
    n = cols;
    rows = Array.map (canonical_row cols) rows;
  }

let of_mat a =
  let m = Linalg.Mat.rows a and n = Linalg.Mat.cols a in
  let data = Linalg.Mat.data a in
  let rows =
    Array.init m (fun i ->
        let entries = ref [] in
        for j = n - 1 downto 0 do
          let v = data.((i * n) + j) in
          if v <> 0.0 then entries := (j, v) :: !entries
        done;
        !entries)
  in
  { m; n; rows }

let rows t = t.m
let cols t = t.n
let nnz t = Array.fold_left (fun acc r -> acc + List.length r) 0 t.rows

let row t i =
  if i < 0 || i >= t.m then invalid_arg "Sparse_rows.row: out of range";
  t.rows.(i)

(* Σ v·x.(j) over a row, left to right from 0.  A loop over a local
   ref, not a fold or a recursion, so the running sum is never boxed. *)
let row_dot row x =
  let acc = ref 0.0 and rest = ref row in
  while
    match !rest with
    | [] -> false
    | (j, v) :: tl ->
      acc := !acc +. (v *. x.(j));
      rest := tl;
      true
  do
    ()
  done;
  !acc

let scale t ~row ~col =
  if Linalg.Vec.dim row <> t.m || Linalg.Vec.dim col <> t.n then
    invalid_arg "Sparse_rows.scale: dimension";
  let rows =
    Array.mapi
      (fun i r ->
        let di = row.(i) in
        List.filter_map
          (fun (j, v) ->
            let v = v *. di *. col.(j) in
            if v <> 0.0 then Some (j, v) else None)
          r)
      t.rows
  in
  { t with rows }

let mul_vec t x =
  if Linalg.Vec.dim x <> t.n then invalid_arg "Sparse_rows.mul_vec: dimension";
  let y = Array.make t.m 0.0 in
  for i = 0 to t.m - 1 do
    y.(i) <- row_dot t.rows.(i) x
  done;
  y

let mul_tvec t y =
  if Linalg.Vec.dim y <> t.m then invalid_arg "Sparse_rows.mul_tvec: dimension";
  let out = Array.make t.n 0.0 in
  for i = 0 to t.m - 1 do
    let yi = y.(i) in
    if yi <> 0.0 then
      List.iter (fun (j, v) -> out.(j) <- out.(j) +. (v *. yi)) t.rows.(i)
  done;
  out

let scale_rows t ~blocks ~scale_block =
  let scaled = Array.make t.m [] in
  List.iter
    (fun (lo, len) ->
      let block_rows = Array.init len (fun k -> t.rows.(lo + k)) in
      let out = scale_block lo block_rows in
      if Array.length out <> len then
        invalid_arg "Sparse_rows.scale_rows: scale_block changed the size";
      Array.iteri (fun k r -> scaled.(lo + k) <- r) out)
    blocks;
  { t with rows = scaled }

let dense_rows t ~among ~above =
  let candidate = Array.make t.m false in
  List.iter
    (fun (lo, len) ->
      for i = lo to lo + len - 1 do
        if List.compare_length_with t.rows.(i) above > 0 then
          candidate.(i) <- true
      done)
    among;
  let covered = Array.make t.n false in
  let cover i = List.iter (fun (j, _) -> covered.(j) <- true) t.rows.(i) in
  Array.iteri (fun i c -> if not c then cover i) candidate;
  (* A candidate that is the only row touching some column stays in
     place, in row order: without it that column of the remaining Gram
     matrix would be empty. *)
  List.filter
    (fun i ->
      if List.for_all (fun (j, _) -> covered.(j)) t.rows.(i) then true
      else begin
        cover i;
        false
      end)
    (List.filter (Array.get candidate) (List.init t.m Fun.id))
  |> Array.of_list

let drop_rows t idx =
  let rows = Array.copy t.rows in
  Array.iter (fun i -> rows.(i) <- []) idx;
  { t with rows }

(* [d.(base + k) += vj·vk] along one row's tail: a direct recursion
   rather than a [List.iter] closure, so no float is boxed. *)
let rec accumulate d base vj = function
  | [] -> ()
  | (k, vk) :: rest ->
    d.(base + k) <- d.(base + k) +. (vj *. vk);
    accumulate d base vj rest

let gram ?into t =
  let n = t.n in
  let gram =
    match into with
    | None -> Linalg.Mat.create n n
    | Some g ->
      if Linalg.Mat.rows g <> n || Linalg.Mat.cols g <> n then
        invalid_arg "Sparse_rows.gram: into has the wrong dimensions";
      g
  in
  let d = Linalg.Mat.data gram in
  Array.fill d 0 (n * n) 0.0;
  Array.iter
    (fun entries ->
      (* Accumulate the outer product of one sparse row (upper triangle). *)
      let rec outer = function
        | [] -> ()
        | (j, vj) :: rest ->
          let base = j * n in
          d.(base + j) <- d.(base + j) +. (vj *. vj);
          accumulate d base vj rest;
          outer rest
      in
      outer entries)
    t.rows;
  (* Mirror into the lower triangle. *)
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      d.((j * n) + i) <- d.((i * n) + j)
    done
  done;
  gram

let scaled_gram t ~blocks ~scale_block =
  let b = scale_rows t ~blocks ~scale_block in
  (gram b, b)

(* The structural pattern of GᵀW⁻²G is invariant across interior-point
   iterations: the NT scaling acts row-wise inside the orthant and
   mixes rows only within one second-order block.  So the pattern of a
   scaled row is the union of its block's row patterns — computed here
   once, with every diagonal entry kept structurally (the shift policy
   touches all of them). *)
let gram_pattern t ~soc =
  let structural = Array.map (fun r -> List.map fst r) t.rows in
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
  for j = 0 to t.n - 1 do
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
  Linalg.Sparse.create ~n:t.n !triplets

(* Numeric fill of a pre-computed pattern: cancellation can only shrink
   the scaled rows' support, never grow it, so every accumulation lands
   on a structural entry. *)
let fill_gram t ~into =
  Linalg.Sparse.clear into;
  Array.iter
    (fun entries ->
      let rec outer = function
        | [] -> ()
        | (j, vj) :: rest ->
          Linalg.Sparse.add into j j (vj *. vj);
          List.iter (fun (k, vk) -> Linalg.Sparse.add into j k (vj *. vk)) rest;
          outer rest
      in
      outer entries)
    t.rows
