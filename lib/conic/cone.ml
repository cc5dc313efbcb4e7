type block = Nonneg of int | Soc of int

(* Blocks are stored with their offsets into the product space. *)
type t = { blocks : (int * block) list; dim : int; degree : int }

let make bs =
  let dim_of = function
    | Nonneg n | Soc n ->
      if n <= 0 then invalid_arg "Cone.make: non-positive block dimension"
      else n
  in
  let offset = ref 0 and degree = ref 0 in
  let blocks =
    List.map
      (fun b ->
        let o = !offset in
        offset := o + dim_of b;
        (degree := !degree + match b with Nonneg n -> n | Soc _ -> 1);
        (o, b))
      bs
  in
  { blocks; dim = !offset; degree = !degree }

let blocks k = List.map snd k.blocks
let dim k = k.dim
let degree k = k.degree

let check_dim name k u =
  if Linalg.Vec.dim u <> k.dim then
    invalid_arg (Printf.sprintf "Cone.%s: vector dimension" name)

let identity k =
  let e = Linalg.Vec.create k.dim in
  List.iter
    (fun (o, b) ->
      match b with
      | Nonneg n -> Array.fill e o n 1.0
      | Soc _ -> e.(o) <- 1.0)
    k.blocks;
  e

(* Norm of the SOC tail u.(o+1 .. o+n-1). *)
let tail_norm u o n =
  let acc = ref 0.0 in
  for i = o + 1 to o + n - 1 do
    acc := !acc +. (u.(i) *. u.(i))
  done;
  sqrt !acc

let min_eig k u =
  check_dim "min_eig" k u;
  List.fold_left
    (fun acc (o, b) ->
      match b with
      | Nonneg n ->
        let m = ref acc in
        for i = o to o + n - 1 do
          m := Float.min !m u.(i)
        done;
        !m
      | Soc n -> Float.min acc (u.(o) -. tail_norm u o n))
    infinity k.blocks

let mem ?(eps = 0.0) k u = min_eig k u >= -.eps

let prod k u v =
  check_dim "prod" k u;
  check_dim "prod" k v;
  let w = Linalg.Vec.create k.dim in
  List.iter
    (fun (o, b) ->
      match b with
      | Nonneg n ->
        for i = o to o + n - 1 do
          w.(i) <- u.(i) *. v.(i)
        done
      | Soc n ->
        let d = ref 0.0 in
        for i = o to o + n - 1 do
          d := !d +. (u.(i) *. v.(i))
        done;
        w.(o) <- !d;
        for i = o + 1 to o + n - 1 do
          w.(i) <- (u.(o) *. v.(i)) +. (v.(o) *. u.(i))
        done)
    k.blocks;
  w

let div k lam d =
  check_dim "div" k lam;
  check_dim "div" k d;
  let u = Linalg.Vec.create k.dim in
  List.iter
    (fun (o, b) ->
      match b with
      | Nonneg n ->
        for i = o to o + n - 1 do
          u.(i) <- d.(i) /. lam.(i)
        done
      | Soc n ->
        (* Solve lam ∘ u = d on one SOC block. *)
        let lt = tail_norm lam o n in
        let det = (lam.(o) *. lam.(o)) -. (lt *. lt) in
        let lam_dot_d = ref 0.0 in
        for i = o + 1 to o + n - 1 do
          lam_dot_d := !lam_dot_d +. (lam.(i) *. d.(i))
        done;
        let u0 = ((lam.(o) *. d.(o)) -. !lam_dot_d) /. det in
        u.(o) <- u0;
        for i = o + 1 to o + n - 1 do
          u.(i) <- (d.(i) -. (u0 *. lam.(i))) /. lam.(o)
        done)
    k.blocks;
  u

(* Largest step keeping one SOC block inside the cone: smallest positive
   boundary crossing of f(α) = (t+α·dt)² − ‖ū+α·dū‖², intersected with
   t + α·dt ≥ 0. *)
let max_step_soc u du o n =
  let a = ref (du.(o) *. du.(o))
  and b = ref (u.(o) *. du.(o))
  and c = ref (u.(o) *. u.(o)) in
  for i = o + 1 to o + n - 1 do
    a := !a -. (du.(i) *. du.(i));
    b := !b -. (u.(i) *. du.(i));
    c := !c -. (u.(i) *. u.(i))
  done;
  let a = !a and b = !b and c = Float.max !c 0.0 in
  let alpha_lin = if du.(o) < 0.0 then -.u.(o) /. du.(o) else infinity in
  let alpha_quad =
    if Float.abs a < 1e-300 then if b >= 0.0 then infinity else -.c /. (2.0 *. b)
    else begin
      let disc = (b *. b) -. (a *. c) in
      if a > 0.0 then
        if disc <= 0.0 then infinity
        else begin
          let sq = sqrt disc in
          let r1 = (-.b -. sq) /. a in
          if r1 > 0.0 then r1
          else if
            (* 0 sits inside or at the negative-f interval: only possible
               when c ≈ 0 (boundary); block any move that decreases f. *)
            c <= 1e-300 && b < 0.0
          then 0.0
          else infinity
        end
      else begin
        (* Downward parabola: feasible between the roots. *)
        let sq = sqrt (Float.max disc 0.0) in
        Float.max 0.0 ((-.b -. sq) /. a)
      end
    end
  in
  Float.min alpha_lin alpha_quad

let max_step k u du =
  check_dim "max_step" k u;
  check_dim "max_step" k du;
  List.fold_left
    (fun acc (o, b) ->
      match b with
      | Nonneg n ->
        let m = ref acc in
        for i = o to o + n - 1 do
          if du.(i) < 0.0 then m := Float.min !m (-.u.(i) /. du.(i))
        done;
        !m
      | Soc n -> Float.min acc (max_step_soc u du o n))
    infinity k.blocks

(* NT scaling.  Orthant blocks store w with W = diag(w); SOC blocks store
   (eta, v) with W·u = eta·(2·v·(vᵀu) − J·u), J = diag(1, −I), vᵀJv = 1. *)
type soc_scaling = { eta : float; v : float array }

type block_scaling = W_diag of float array | W_soc of soc_scaling

type scaling = {
  cone : t;
  per_block : (int * int * block_scaling) array;
      (* offset, size, scaling; offsets increasing *)
  lam : Linalg.Vec.t;
}

let nt_scaling k ~s ~z =
  check_dim "nt_scaling" k s;
  check_dim "nt_scaling" k z;
  if min_eig k s <= 0.0 || min_eig k z <= 0.0 then
    invalid_arg "Cone.nt_scaling: point not strictly interior";
  let lam = Linalg.Vec.create k.dim in
  let per_block =
    List.map
      (fun (o, b) ->
        match b with
        | Nonneg n ->
          let w = Array.make n 0.0 in
          for i = 0 to n - 1 do
            w.(i) <- sqrt (s.(o + i) /. z.(o + i));
            lam.(o + i) <- sqrt (s.(o + i) *. z.(o + i))
          done;
          (o, n, W_diag w)
        | Soc n ->
          let snorm =
            sqrt ((s.(o) *. s.(o)) -. (tail_norm s o n ** 2.0))
          and znorm =
            sqrt ((z.(o) *. z.(o)) -. (tail_norm z o n ** 2.0))
          in
          (* Normalised points and geometric mean direction. *)
          let sb = Array.init n (fun i -> s.(o + i) /. snorm)
          and zb = Array.init n (fun i -> z.(o + i) /. znorm) in
          let dot_sz = ref 0.0 in
          for i = 0 to n - 1 do
            dot_sz := !dot_sz +. (sb.(i) *. zb.(i))
          done;
          let gamma = sqrt ((1.0 +. !dot_sz) /. 2.0) in
          let wbar =
            Array.init n (fun i ->
                let ji = if i = 0 then zb.(i) else -.zb.(i) in
                (sb.(i) +. ji) /. (2.0 *. gamma))
          in
          let eta = sqrt (snorm /. znorm) in
          let denom = sqrt (2.0 *. (wbar.(0) +. 1.0)) in
          let v =
            Array.init n (fun i ->
                ((if i = 0 then wbar.(i) +. 1.0 else wbar.(i)) /. denom))
          in
          (* λ block: W·z computed directly. *)
          let dot_vz = ref 0.0 in
          for i = 0 to n - 1 do
            dot_vz := !dot_vz +. (v.(i) *. z.(o + i))
          done;
          for i = 0 to n - 1 do
            let ju = if i = 0 then z.(o + i) else -.z.(o + i) in
            lam.(o + i) <- eta *. ((2.0 *. v.(i) *. !dot_vz) -. ju)
          done;
          (o, n, W_soc { eta; v }))
      k.blocks
    |> Array.of_list
  in
  { cone = k; per_block; lam }

let apply_gen inv w u =
  check_dim "apply" w.cone u;
  let out = Linalg.Vec.create w.cone.dim in
  Array.iter
    (fun (o, n, bs) ->
      match bs with
      | W_diag d ->
        for i = 0 to n - 1 do
          out.(o + i) <- (if inv then u.(o + i) /. d.(i) else u.(o + i) *. d.(i))
        done
      | W_soc { eta; v } ->
        (* W⁻¹ uses the reflected vector J·v and inverse magnitude. *)
        let scale = if inv then 1.0 /. eta else eta in
        let vv = if inv then Array.mapi (fun i x -> if i = 0 then x else -.x) v else v in
        let dot_vu = ref 0.0 in
        for i = 0 to n - 1 do
          dot_vu := !dot_vu +. (vv.(i) *. u.(o + i))
        done;
        for i = 0 to n - 1 do
          let ju = if i = 0 then u.(o + i) else -.u.(o + i) in
          out.(o + i) <- scale *. ((2.0 *. vv.(i) *. !dot_vu) -. ju)
        done)
    w.per_block;
  out

let apply w u = apply_gen false w u
let apply_inv w u = apply_gen true w u
let lambda w = Linalg.Vec.copy w.lam

let block_layout w =
  Array.fold_right (fun (o, n, _) acc -> (o, n) :: acc) w.per_block []

(* Binary search of the block starting at [offset]. *)
let block_at w offset =
  let rec go lo hi =
    if lo > hi then invalid_arg "Cone.apply_inv_rows: not a block boundary"
    else
      let mid = (lo + hi) / 2 in
      let ((o, _, _) as b) = w.per_block.(mid) in
      if o = offset then b
      else if o < offset then go (mid + 1) hi
      else go lo (mid - 1)
  in
  go 0 (Array.length w.per_block - 1)

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

let apply_inv_rows w offset rows =
  let _, n, bs = block_at w offset in
  if Array.length rows <> n then
    invalid_arg "Cone.apply_inv_rows: row count mismatch";
  match bs with
  | W_diag d ->
    (* One coefficient per row: the rows stay column-sorted. *)
    Array.mapi (fun i r -> scale_row (1.0 /. d.(i)) r) rows
  | W_soc { eta; v } ->
    (* W⁻¹ = η⁻¹·(2·(Jv)(Jv)ᵀ − J): row i of the result mixes the
       block's rows with coefficients 2·(Jv)ᵢ·(Jv)ₖ − Jᵢᵢ·[i=k],
       summed per column over k in order, on a dense accumulator over
       the union of the block's columns; exact zeros are dropped. *)
    let jv = Array.mapi (fun i x -> if i = 0 then x else -.x) v in
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
