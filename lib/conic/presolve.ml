module Vec = Linalg.Vec

type scaling = { row : Vec.t; col : Vec.t; obj : float }

(* Every stored entry of [g] is nonzero, so the loops below visit only
   the entries a dense scan would count. *)
let iter_nonzeros f g =
  let { Sparse_rows.ptr; col; value; _ } = g in
  for i = 0 to Sparse_rows.rows g - 1 do
    for p = ptr.(i) to ptr.(i + 1) - 1 do
      f i col.(p) value.(p)
    done
  done

let dynamic_range g =
  let mx = ref 0.0 and mn = ref infinity in
  iter_nonzeros
    (fun _ _ v ->
      let v = Float.abs v in
      if v > 0.0 then begin
        if v > !mx then mx := v;
        if v < !mn then mn := v
      end)
    g;
  if !mx = 0.0 then 1.0 else !mx /. !mn

let auto_threshold = 1e6
let badly_scaled g = dynamic_range g > auto_threshold

(* Offsets and lengths of the SOC blocks: their rows must end up with a
   common scale factor, because s ∈ SOC(q) only survives multiplication
   by a *uniform* positive factor. *)
let soc_groups cone =
  let groups, _ =
    List.fold_left
      (fun (acc, off) b ->
        match b with
        | Cone.Nonneg n -> (acc, off + n)
        | Cone.Soc q -> ((off, q) :: acc, off + q))
      ([], 0) (Cone.blocks cone)
  in
  List.rev groups

let equilibrate ?(iterations = 10) ~c ~g ~h cone =
  let m = Sparse_rows.rows g and n = Sparse_rows.cols g in
  let a = ref g in
  let row = Vec.make m 1.0 and col = Vec.make n 1.0 in
  let groups = soc_groups cone in
  let rnorm = Vec.create m and cnorm = Vec.create n in
  for _ = 1 to iterations do
    Vec.fill rnorm 0.0;
    Vec.fill cnorm 0.0;
    iter_nonzeros
      (fun i j v ->
        let v = Float.abs v in
        if v > rnorm.(i) then rnorm.(i) <- v;
        if v > cnorm.(j) then cnorm.(j) <- v)
      !a;
    List.iter
      (fun (off, len) ->
        let mx = ref 0.0 in
        for i = off to off + len - 1 do
          if rnorm.(i) > !mx then mx := rnorm.(i)
        done;
        for i = off to off + len - 1 do
          rnorm.(i) <- !mx
        done)
      groups;
    let e =
      Array.map (fun c -> if c > 0.0 then 1.0 /. sqrt c else 1.0) cnorm
    in
    let d =
      Array.map (fun r -> if r > 0.0 then 1.0 /. sqrt r else 1.0) rnorm
    in
    for i = 0 to m - 1 do
      row.(i) <- row.(i) *. d.(i)
    done;
    a := Sparse_rows.scale !a ~row:d ~col:e;
    for j = 0 to n - 1 do
      col.(j) <- col.(j) *. e.(j)
    done
  done;
  let obj =
    let mx = ref 0.0 in
    for j = 0 to n - 1 do
      let v = Float.abs (col.(j) *. c.(j)) in
      if v > !mx then mx := v
    done;
    if !mx > 0.0 then 1.0 /. !mx else 1.0
  in
  let t = { row; col; obj } in
  let c' = Vec.init n (fun j -> obj *. col.(j) *. c.(j)) in
  let h' = Vec.init m (fun i -> row.(i) *. h.(i)) in
  (t, c', !a, h')

let unscale_point t ~x ~s ~z =
  let x' = Vec.init (Vec.dim x) (fun j -> t.col.(j) *. x.(j)) in
  let s' = Vec.init (Vec.dim s) (fun i -> s.(i) /. t.row.(i)) in
  let z' = Vec.init (Vec.dim z) (fun i -> t.row.(i) *. z.(i) /. t.obj) in
  (x', s', z')
