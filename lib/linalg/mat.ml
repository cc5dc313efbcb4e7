type t = { m : int; n : int; data : float array (* row-major *) }

let create m n =
  if m < 0 || n < 0 then invalid_arg "Mat.create: negative dimension";
  { m; n; data = Array.make (m * n) 0.0 }

let init m n f =
  let a = create m n in
  for i = 0 to m - 1 do
    for j = 0 to n - 1 do
      a.data.((i * n) + j) <- f i j
    done
  done;
  a

let identity n = init n n (fun i j -> if i = j then 1.0 else 0.0)

let of_arrays arr =
  let m = Array.length arr in
  if m = 0 then create 0 0
  else begin
    let n = Array.length arr.(0) in
    Array.iter
      (fun r ->
        if Array.length r <> n then invalid_arg "Mat.of_arrays: ragged rows")
      arr;
    init m n (fun i j -> arr.(i).(j))
  end

let of_rows rows = of_arrays (Array.of_list rows)

let of_data m n data =
  if m < 0 || n < 0 then invalid_arg "Mat.of_data: negative dimension";
  if Array.length data <> m * n then invalid_arg "Mat.of_data: data length";
  { m; n; data }

let rows a = a.m
let cols a = a.n
let data a = a.data

let get a i j =
  if i < 0 || i >= a.m || j < 0 || j >= a.n then
    invalid_arg "Mat.get: index out of bounds";
  a.data.((i * a.n) + j)

let set a i j x =
  if i < 0 || i >= a.m || j < 0 || j >= a.n then
    invalid_arg "Mat.set: index out of bounds";
  a.data.((i * a.n) + j) <- x

let update a i j f = set a i j (f (get a i j))
let copy a = { a with data = Array.copy a.data }
let col a j = Array.init a.m (fun i -> get a i j)
let transpose a = init a.n a.m (fun i j -> get a j i)

let mul_vec a x =
  if Vec.dim x <> a.n then invalid_arg "Mat.mul_vec: dimension mismatch";
  let y = Array.make a.m 0.0 in
  for i = 0 to a.m - 1 do
    let acc = ref 0.0 in
    let base = i * a.n in
    for j = 0 to a.n - 1 do
      acc := !acc +. (a.data.(base + j) *. x.(j))
    done;
    y.(i) <- !acc
  done;
  y

let mul_tvec a x =
  if Vec.dim x <> a.m then invalid_arg "Mat.mul_tvec: dimension mismatch";
  let y = Array.make a.n 0.0 in
  for i = 0 to a.m - 1 do
    let base = i * a.n in
    let xi = x.(i) in
    if xi <> 0.0 then
      for j = 0 to a.n - 1 do
        y.(j) <- y.(j) +. (a.data.(base + j) *. xi)
      done
  done;
  y

let mul a b =
  if a.n <> b.m then invalid_arg "Mat.mul: dimension mismatch";
  let c = create a.m b.n in
  for i = 0 to a.m - 1 do
    for k = 0 to a.n - 1 do
      let aik = a.data.((i * a.n) + k) in
      if aik <> 0.0 then begin
        let bbase = k * b.n and cbase = i * b.n in
        for j = 0 to b.n - 1 do
          c.data.(cbase + j) <- c.data.(cbase + j) +. (aik *. b.data.(bbase + j))
        done
      end
    done
  done;
  c

let map2 name f a b =
  if a.m <> b.m || a.n <> b.n then
    invalid_arg (Printf.sprintf "Mat.%s: dimension mismatch" name);
  { a with data = Array.init (a.m * a.n) (fun k -> f a.data.(k) b.data.(k)) }

let add a b = map2 "add" ( +. ) a b

let gram_weighted a w =
  if Vec.dim w <> a.m then invalid_arg "Mat.gram_weighted: weight dimension";
  let c = create a.n a.n in
  for k = 0 to a.m - 1 do
    let base = k * a.n in
    let wk = w.(k) in
    if wk <> 0.0 then
      for i = 0 to a.n - 1 do
        let aki = a.data.(base + i) in
        if aki <> 0.0 then begin
          let f = wk *. aki in
          let cbase = i * a.n in
          for j = i to a.n - 1 do
            c.data.(cbase + j) <- c.data.(cbase + j) +. (f *. a.data.(base + j))
          done
        end
      done
  done;
  (* Mirror the upper triangle. *)
  for i = 0 to a.n - 1 do
    for j = i + 1 to a.n - 1 do
      c.data.((j * a.n) + i) <- c.data.((i * a.n) + j)
    done
  done;
  c

let gram a = gram_weighted a (Array.make a.m 1.0)

let frobenius a =
  let acc = ref 0.0 in
  for k = 0 to Array.length a.data - 1 do
    let x = a.data.(k) in
    acc := !acc +. (x *. x)
  done;
  sqrt !acc

let equal ~eps a b =
  a.m = b.m && a.n = b.n
  && begin
       let ok = ref true in
       Array.iteri
         (fun k x -> if Float.abs (x -. b.data.(k)) > eps then ok := false)
         a.data;
       !ok
     end
