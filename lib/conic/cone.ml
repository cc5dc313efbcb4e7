type block = Nonneg of int | Soc of int

(* Blocks are stored with their offsets into the product space. *)
type t = {
  offsets : int array;
  kinds : block array;
  dim : int;
  degree : int;
}

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
  {
    offsets = Array.of_list (List.map fst blocks);
    kinds = Array.of_list bs;
    dim = !offset;
    degree = !degree;
  }

let blocks k = Array.to_list k.kinds
let dim k = k.dim
let degree k = k.degree

let check_dim name k u =
  if Linalg.Vec.dim u <> k.dim then
    invalid_arg (Printf.sprintf "Cone.%s: vector dimension" name)

let identity k =
  let e = Linalg.Vec.create k.dim in
  Array.iteri
    (fun bi b ->
      let o = k.offsets.(bi) in
      match b with
      | Nonneg n -> Array.fill e o n 1.0
      | Soc _ -> e.(o) <- 1.0)
    k.kinds;
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
  let m = ref infinity in
  for bi = 0 to Array.length k.kinds - 1 do
    let o = k.offsets.(bi) in
    match k.kinds.(bi) with
    | Nonneg n ->
      for i = o to o + n - 1 do
        m := Float.min !m u.(i)
      done
    | Soc n -> m := Float.min !m (u.(o) -. tail_norm u o n)
  done;
  !m

let mem ?(eps = 0.0) k u = min_eig k u >= -.eps

let output name k = function
  | None -> Linalg.Vec.create k.dim
  | Some out ->
    check_dim name k out;
    out

let prod ?into k u v =
  check_dim "prod" k u;
  check_dim "prod" k v;
  let w = output "prod" k into in
  for bi = 0 to Array.length k.kinds - 1 do
    let o = k.offsets.(bi) in
    match k.kinds.(bi) with
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
      done
  done;
  w

let div ?into k lam d =
  check_dim "div" k lam;
  check_dim "div" k d;
  let u = output "div" k into in
  for bi = 0 to Array.length k.kinds - 1 do
    let o = k.offsets.(bi) in
    match k.kinds.(bi) with
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
      done
  done;
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
  let m = ref infinity in
  for bi = 0 to Array.length k.kinds - 1 do
    let o = k.offsets.(bi) in
    match k.kinds.(bi) with
    | Nonneg n ->
      for i = o to o + n - 1 do
        if du.(i) < 0.0 then m := Float.min !m (-.u.(i) /. du.(i))
      done
    | Soc n -> m := Float.min !m (max_step_soc u du o n)
  done;
  !m

(* NT scaling, in flat per-solve storage.  An orthant entry stores
   wᵢ with W = diag(w); an SOC block stores its unit vector v in the
   same places and η per block, with W·u = η·(2·v·(vᵀu) − J·u),
   J = diag(1, −I), vᵀJv = 1. *)
type scaling = {
  cone : t;
  w : float array;
  eta : float array;
  lam : Linalg.Vec.t;
}

let scaling_storage k =
  {
    cone = k;
    w = Array.make k.dim 0.0;
    eta = Array.make (Array.length k.kinds) 0.0;
    lam = Linalg.Vec.create k.dim;
  }

let nt_scaling ?into k ~s ~z =
  check_dim "nt_scaling" k s;
  check_dim "nt_scaling" k z;
  if min_eig k s <= 0.0 || min_eig k z <= 0.0 then
    invalid_arg "Cone.nt_scaling: point not strictly interior";
  let sc =
    match into with
    | None -> scaling_storage k
    | Some sc ->
      if sc.cone != k then invalid_arg "Cone.nt_scaling: into of another cone";
      sc
  in
  let w = sc.w and lam = sc.lam in
  for bi = 0 to Array.length k.kinds - 1 do
    let o = k.offsets.(bi) in
    match k.kinds.(bi) with
    | Nonneg n ->
      for i = o to o + n - 1 do
        w.(i) <- sqrt (s.(i) /. z.(i));
        lam.(i) <- sqrt (s.(i) *. z.(i))
      done
    | Soc n ->
      let snorm = sqrt ((s.(o) *. s.(o)) -. (tail_norm s o n ** 2.0))
      and znorm = sqrt ((z.(o) *. z.(o)) -. (tail_norm z o n ** 2.0)) in
      (* Normalised points s/‖s‖ and z/‖z‖, formed entry by entry,
         and the geometric mean direction w̄ with
         w̄ᵢ = (s̄ᵢ + (Jz̄)ᵢ)/(2γ). *)
      let dot_sz = ref 0.0 in
      for i = 0 to n - 1 do
        dot_sz := !dot_sz +. (s.(o + i) /. snorm *. (z.(o + i) /. znorm))
      done;
      let gamma = sqrt ((1.0 +. !dot_sz) /. 2.0) in
      let eta = sqrt (snorm /. znorm) in
      let wbar0 = ((s.(o) /. snorm) +. (z.(o) /. znorm)) /. (2.0 *. gamma) in
      let denom = sqrt (2.0 *. (wbar0 +. 1.0)) in
      w.(o) <- (wbar0 +. 1.0) /. denom;
      for i = o + 1 to o + n - 1 do
        let ji = -.(z.(i) /. znorm) in
        w.(i) <- ((s.(i) /. snorm) +. ji) /. (2.0 *. gamma) /. denom
      done;
      sc.eta.(bi) <- eta;
      (* λ block: W·z computed directly. *)
      let dot_vz = ref 0.0 in
      for i = 0 to n - 1 do
        dot_vz := !dot_vz +. (w.(o + i) *. z.(o + i))
      done;
      for i = 0 to n - 1 do
        let ju = if i = 0 then z.(o + i) else -.z.(o + i) in
        lam.(o + i) <- eta *. ((2.0 *. w.(o + i) *. !dot_vz) -. ju)
      done
  done;
  sc

(* W·u, or W⁻¹·u with [inv]: W⁻¹ uses the reflected vector J·v and the
   inverse magnitude.  [out] may be [u] itself — a block's entries are
   read before any of them is written. *)
let apply_gen inv ?into sc u =
  let k = sc.cone in
  check_dim "apply" k u;
  let out = output "apply" k into in
  let w = sc.w in
  for bi = 0 to Array.length k.kinds - 1 do
    let o = k.offsets.(bi) in
    match k.kinds.(bi) with
    | Nonneg n ->
      for i = o to o + n - 1 do
        out.(i) <- (if inv then u.(i) /. w.(i) else u.(i) *. w.(i))
      done
    | Soc n ->
      let eta = sc.eta.(bi) in
      let scale = if inv then 1.0 /. eta else eta in
      let dot_vu = ref 0.0 in
      for i = 0 to n - 1 do
        let vv = if inv && i > 0 then -.w.(o + i) else w.(o + i) in
        dot_vu := !dot_vu +. (vv *. u.(o + i))
      done;
      for i = 0 to n - 1 do
        let vv = if inv && i > 0 then -.w.(o + i) else w.(o + i) in
        let ju = if i = 0 then u.(o + i) else -.u.(o + i) in
        out.(o + i) <- scale *. ((2.0 *. vv *. !dot_vu) -. ju)
      done
  done;
  out

let apply ?into w u = apply_gen false ?into w u
let apply_inv ?into w u = apply_gen true ?into w u
let lambda w = Linalg.Vec.copy w.lam
