type factor = { l : Mat.t; shift : float }

exception Not_positive_definite

(* Plain Cholesky of [a + shift·I] into the flat row-major [l]; returns
   false on a non-positive pivot.  Reads A's storage and writes L's
   directly: a [Mat.get] per element would box every float, and this
   factorisation dominates each interior-point iteration.  Every entry
   of [l] an attempt reads was written earlier in that attempt, so [l]
   can be reused across shift attempts and across factorisations; its
   strict upper triangle is never written. *)
let try_factor ~n a l shift =
  let ok = ref true and col = ref 0 in
  while !ok && !col < n do
    let j = !col in
    let jbase = j * n in
    let diag = ref (a.(jbase + j) +. shift) in
    for k = 0 to j - 1 do
      let ljk = l.(jbase + k) in
      diag := !diag -. (ljk *. ljk)
    done;
    if !diag <= 0.0 || Float.is_nan !diag then ok := false
    else begin
      let ljj = sqrt !diag in
      l.(jbase + j) <- ljj;
      for i = j + 1 to n - 1 do
        let ibase = i * n in
        let acc = ref a.(ibase + j) in
        for k = 0 to j - 1 do
          acc := !acc -. (l.(ibase + k) *. l.(jbase + k))
        done;
        l.(ibase + j) <- !acc /. ljj
      done;
      incr col
    end
  done;
  !ok

let factor ?(max_shift = 1e-4) ?into a =
  if Mat.rows a <> Mat.cols a then invalid_arg "Cholesky.factor: not square";
  let scale =
    let f = Mat.frobenius a in
    if f > 0.0 then f else 1.0
  in
  let n = Mat.rows a in
  let lm =
    match into with
    | None -> Mat.create n n
    | Some lm ->
      if Mat.rows lm <> n || Mat.cols lm <> n then
        invalid_arg "Cholesky.factor: into has the wrong dimensions";
      lm
  in
  let l = Mat.data lm in
  let rec attempt shift =
    if try_factor ~n (Mat.data a) l shift then { l = lm; shift }
    else
      let next = if shift = 0.0 then 1e-14 *. scale else shift *. 100.0 in
      if next > max_shift *. scale then raise Not_positive_definite
      else attempt next
  in
  attempt 0.0

let solve_lower lm b =
  let n = Mat.rows lm and l = Mat.data lm in
  if Mat.cols lm <> n || Vec.dim b <> n then
    invalid_arg "Cholesky.solve_lower: dimension";
  let x = Vec.copy b in
  for i = 0 to n - 1 do
    let ibase = i * n in
    let acc = ref x.(i) in
    for k = 0 to i - 1 do
      acc := !acc -. (l.(ibase + k) *. x.(k))
    done;
    x.(i) <- !acc /. l.(ibase + i)
  done;
  x

let solve_upper_t lm b =
  let n = Mat.rows lm and l = Mat.data lm in
  if Mat.cols lm <> n || Vec.dim b <> n then
    invalid_arg "Cholesky.solve_upper_t: dimension";
  let x = Vec.copy b in
  for i = n - 1 downto 0 do
    let acc = ref x.(i) in
    for k = i + 1 to n - 1 do
      acc := !acc -. (l.((k * n) + i) *. x.(k))
    done;
    x.(i) <- !acc /. l.((i * n) + i)
  done;
  x

let solve { l; _ } b = solve_upper_t l (solve_lower l b)
