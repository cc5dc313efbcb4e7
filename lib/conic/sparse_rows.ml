(* Compressed sparse rows: row [i] holds the entries
   [ptr.(i) .. ptr.(i+1) - 1] of [col]/[value], columns strictly
   increasing.  [col] and [value] may be longer than [ptr.(m)]: a
   matrix made by [empty] is storage that its owner refills row by row. *)
type t = {
  m : int;
  n : int;
  ptr : int array;
  col : int array;
  value : float array;
}

let empty ~rows ~cols ~capacity =
  if rows < 0 || cols < 0 || capacity < 0 then
    invalid_arg "Sparse_rows.empty: negative size";
  {
    m = rows;
    n = cols;
    ptr = Array.make (rows + 1) 0;
    col = Array.make capacity 0;
    value = Array.make capacity 0.0;
  }

(* Canonical row form: strictly increasing column indices, duplicates
   summed in input order, explicit zeros dropped.  Every constructor
   funnels through here so downstream consumers (Gram assembly, CSC
   patterns) can rely on sortedness instead of silently
   mis-assembling.  Row [i] is written at [t.ptr.(i)], which the caller
   has set; [t.ptr.(i + 1)] is set here. *)
let canonicalise_into t i entries =
  List.iter
    (fun (j, _) ->
      if j < 0 || j >= t.n then
        invalid_arg "Sparse_rows: column index out of range")
    entries;
  let sorted = List.stable_sort (fun (a, _) (b, _) -> Int.compare a b) entries in
  (* [q] is one past the last written entry; a zero sum is only dropped
     once its column is complete, so duplicates that cancel leave no
     entry and later ones still merge into the right place. *)
  let start = t.ptr.(i) in
  let q = ref start in
  List.iter
    (fun (j, v) ->
      if !q > start && t.col.(!q - 1) = j then
        t.value.(!q - 1) <- v +. t.value.(!q - 1)
      else begin
        if !q > start && t.value.(!q - 1) = 0.0 then decr q;
        t.col.(!q) <- j;
        t.value.(!q) <- v;
        incr q
      end)
    sorted;
  if !q > start && t.value.(!q - 1) = 0.0 then decr q;
  t.ptr.(i + 1) <- !q

let of_rows ~cols rows =
  if cols < 0 then invalid_arg "Sparse_rows.of_rows: negative cols";
  let capacity = Array.fold_left (fun acc r -> acc + List.length r) 0 rows in
  let t = empty ~rows:(Array.length rows) ~cols ~capacity in
  Array.iteri (canonicalise_into t) rows;
  t

let of_mat a =
  let m = Linalg.Mat.rows a and n = Linalg.Mat.cols a in
  let data = Linalg.Mat.data a in
  let nz =
    Array.fold_left (fun acc v -> if v <> 0.0 then acc + 1 else acc) 0 data
  in
  let t = empty ~rows:m ~cols:n ~capacity:nz in
  let q = ref 0 in
  for i = 0 to m - 1 do
    for j = 0 to n - 1 do
      let v = data.((i * n) + j) in
      if v <> 0.0 then begin
        t.col.(!q) <- j;
        t.value.(!q) <- v;
        incr q
      end
    done;
    t.ptr.(i + 1) <- !q
  done;
  t

let rows t = t.m
let cols t = t.n
let nnz t = t.ptr.(t.m)

let row t i =
  if i < 0 || i >= t.m then invalid_arg "Sparse_rows.row: out of range";
  List.init (t.ptr.(i + 1) - t.ptr.(i)) (fun k ->
      let p = t.ptr.(i) + k in
      (t.col.(p), t.value.(p)))

(* Σ v·x.(j) over row [i], left to right from 0. *)
let row_dot t i x =
  let acc = ref 0.0 in
  for p = t.ptr.(i) to t.ptr.(i + 1) - 1 do
    acc := !acc +. (t.value.(p) *. x.(t.col.(p)))
  done;
  !acc

(* [diag(row)·t·diag(col)]: every entry keeps its place unless it
   underflows to zero, so the result is compacted in one pass. *)
let scale t ~row ~col =
  if Linalg.Vec.dim row <> t.m || Linalg.Vec.dim col <> t.n then
    invalid_arg "Sparse_rows.scale: dimension";
  let out = empty ~rows:t.m ~cols:t.n ~capacity:(nnz t) in
  let q = ref 0 in
  for i = 0 to t.m - 1 do
    let di = row.(i) in
    for p = t.ptr.(i) to t.ptr.(i + 1) - 1 do
      let j = t.col.(p) in
      let v = t.value.(p) *. di *. col.(j) in
      if v <> 0.0 then begin
        out.col.(!q) <- j;
        out.value.(!q) <- v;
        incr q
      end
    done;
    out.ptr.(i + 1) <- !q
  done;
  out

let output ~name ?into len =
  match into with
  | None -> Array.make len 0.0
  | Some y ->
    if Array.length y <> len then
      invalid_arg (Printf.sprintf "Sparse_rows.%s: into" name);
    y

let mul_vec ?into t x =
  if Linalg.Vec.dim x <> t.n then invalid_arg "Sparse_rows.mul_vec: dimension";
  let y = output ~name:"mul_vec" ?into t.m in
  for i = 0 to t.m - 1 do
    y.(i) <- row_dot t i x
  done;
  y

let mul_tvec ?into t y =
  if Linalg.Vec.dim y <> t.m then invalid_arg "Sparse_rows.mul_tvec: dimension";
  let out = output ~name:"mul_tvec" ?into t.n in
  Array.fill out 0 t.n 0.0;
  for i = 0 to t.m - 1 do
    let yi = y.(i) in
    if yi <> 0.0 then
      for p = t.ptr.(i) to t.ptr.(i + 1) - 1 do
        let j = t.col.(p) in
        out.(j) <- out.(j) +. (t.value.(p) *. yi)
      done
  done;
  out

let dense_rows t ~among ~above =
  let len i = t.ptr.(i + 1) - t.ptr.(i) in
  let candidate = Array.make t.m false in
  List.iter
    (fun (lo, n) ->
      for i = lo to lo + n - 1 do
        if len i > above then candidate.(i) <- true
      done)
    among;
  let covered = Array.make t.n false in
  let cover i =
    for p = t.ptr.(i) to t.ptr.(i + 1) - 1 do
      covered.(t.col.(p)) <- true
    done
  in
  Array.iteri (fun i c -> if not c then cover i) candidate;
  (* A candidate that is the only row touching some column stays in
     place, in row order: without it that column of the remaining Gram
     matrix would be empty. *)
  let all_covered i =
    let ok = ref true in
    for p = t.ptr.(i) to t.ptr.(i + 1) - 1 do
      if not covered.(t.col.(p)) then ok := false
    done;
    !ok
  in
  let dense = ref [] in
  for i = 0 to t.m - 1 do
    if candidate.(i) then
      if all_covered i then dense := i :: !dense else cover i
  done;
  Array.of_list (List.rev !dense)

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
  (* Accumulate the outer product of each row (upper triangle). *)
  for i = 0 to t.m - 1 do
    let hi = t.ptr.(i + 1) - 1 in
    for p = t.ptr.(i) to hi do
      let vj = t.value.(p) in
      let base = t.col.(p) * n in
      d.(base + t.col.(p)) <- d.(base + t.col.(p)) +. (vj *. vj);
      for q = p + 1 to hi do
        let k = base + t.col.(q) in
        d.(k) <- d.(k) +. (vj *. t.value.(q))
      done
    done
  done;
  (* Mirror into the lower triangle. *)
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      d.((j * n) + i) <- d.((i * n) + j)
    done
  done;
  gram
