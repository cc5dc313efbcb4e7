type factor = { l : Mat.t; shift : float }

exception Not_positive_definite

(* Plain (unshifted) Cholesky; returns None on a non-positive pivot.
   Works on raw rows to keep the O(n³) inner loop free of per-element
   bound checks — this factorisation dominates each interior-point
   iteration. *)
let try_factor a shift =
  let n = Mat.rows a in
  let rows = Array.init n (fun i -> Mat.row a i) in
  let l = Array.make_matrix n n 0.0 in
  let ok = ref true in
  (try
     for j = 0 to n - 1 do
       let lj = l.(j) in
       let diag = ref (rows.(j).(j) +. shift) in
       for k = 0 to j - 1 do
         let ljk = lj.(k) in
         diag := !diag -. (ljk *. ljk)
       done;
       if !diag <= 0.0 || Float.is_nan !diag then begin
         ok := false;
         raise Exit
       end;
       let ljj = sqrt !diag in
       lj.(j) <- ljj;
       for i = j + 1 to n - 1 do
         let li = l.(i) in
         let acc = ref rows.(i).(j) in
         for k = 0 to j - 1 do
           acc := !acc -. (li.(k) *. lj.(k))
         done;
         li.(j) <- !acc /. ljj
       done
     done
   with Exit -> ());
  if !ok then Some (Mat.of_arrays l) else None

let factor ?(max_shift = 1e-4) a =
  if Mat.rows a <> Mat.cols a then invalid_arg "Cholesky.factor: not square";
  let scale =
    let f = Mat.frobenius a in
    if f > 0.0 then f else 1.0
  in
  let rec attempt shift =
    match try_factor a shift with
    | Some l -> { l; shift }
    | None ->
      let next = if shift = 0.0 then 1e-14 *. scale else shift *. 100.0 in
      if next > max_shift *. scale then raise Not_positive_definite
      else attempt next
  in
  attempt 0.0

let solve_lower l b =
  let n = Mat.rows l in
  if Vec.dim b <> n then invalid_arg "Cholesky.solve_lower: dimension";
  let x = Vec.copy b in
  for i = 0 to n - 1 do
    let acc = ref x.(i) in
    for k = 0 to i - 1 do
      acc := !acc -. (Mat.get l i k *. x.(k))
    done;
    x.(i) <- !acc /. Mat.get l i i
  done;
  x

let solve_upper_t l b =
  let n = Mat.rows l in
  if Vec.dim b <> n then invalid_arg "Cholesky.solve_upper_t: dimension";
  let x = Vec.copy b in
  for i = n - 1 downto 0 do
    let acc = ref x.(i) in
    for k = i + 1 to n - 1 do
      acc := !acc -. (Mat.get l k i *. x.(k))
    done;
    x.(i) <- !acc /. Mat.get l i i
  done;
  x

let solve { l; _ } b = solve_upper_t l (solve_lower l b)
