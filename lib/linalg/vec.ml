type t = float array

let create n = Array.make n 0.0
let make n x = Array.make n x
let init = Array.init
let dim = Array.length
let copy = Array.copy
let of_list = Array.of_list
let to_list = Array.to_list

let check_dims name u v =
  if Array.length u <> Array.length v then
    invalid_arg (Printf.sprintf "Vec.%s: dimension mismatch (%d vs %d)"
                   name (Array.length u) (Array.length v))

let dot u v =
  check_dims "dot" u v;
  let acc = ref 0.0 in
  for i = 0 to Array.length u - 1 do
    acc := !acc +. (u.(i) *. v.(i))
  done;
  !acc

let nrm2 v =
  (* Scaled to avoid overflow on extreme entries. *)
  let scale = ref 0.0 and ssq = ref 1.0 in
  for i = 0 to Array.length v - 1 do
    let ax = Float.abs v.(i) in
    if ax > 0.0 then
      if !scale < ax then begin
        ssq := 1.0 +. (!ssq *. (!scale /. ax) *. (!scale /. ax));
        scale := ax
      end
      else ssq := !ssq +. ((ax /. !scale) *. (ax /. !scale))
  done;
  !scale *. sqrt !ssq

let amax v = Array.fold_left (fun acc x -> Float.max acc (Float.abs x)) 0.0 v
let asum v = Array.fold_left (fun acc x -> acc +. Float.abs x) 0.0 v

let scal a v =
  for i = 0 to Array.length v - 1 do
    v.(i) <- a *. v.(i)
  done

(* The element-wise operations below are plain loops rather than
   [Array.map]/[map2] with a float closure, which would box every
   entry: they run several times per interior-point iteration. *)
let scale a v =
  let r = Array.make (Array.length v) 0.0 in
  for i = 0 to Array.length v - 1 do
    r.(i) <- a *. v.(i)
  done;
  r

let axpy a x y =
  check_dims "axpy" x y;
  for i = 0 to Array.length x - 1 do
    y.(i) <- (a *. x.(i)) +. y.(i)
  done

let map = Array.map

let map2 f u v =
  check_dims "map2" u v;
  Array.init (Array.length u) (fun i -> f u.(i) v.(i))

let add u v =
  check_dims "add" u v;
  let r = Array.make (Array.length u) 0.0 in
  for i = 0 to Array.length u - 1 do
    r.(i) <- u.(i) +. v.(i)
  done;
  r

let sub u v =
  check_dims "sub" u v;
  let r = Array.make (Array.length u) 0.0 in
  for i = 0 to Array.length u - 1 do
    r.(i) <- u.(i) -. v.(i)
  done;
  r

let neg v =
  let r = Array.make (Array.length v) 0.0 in
  for i = 0 to Array.length v - 1 do
    r.(i) <- -.v.(i)
  done;
  r

let mul u v =
  check_dims "mul" u v;
  let r = Array.make (Array.length u) 0.0 in
  for i = 0 to Array.length u - 1 do
    r.(i) <- u.(i) *. v.(i)
  done;
  r

let div u v =
  check_dims "div" u v;
  let r = Array.make (Array.length u) 0.0 in
  for i = 0 to Array.length u - 1 do
    r.(i) <- u.(i) /. v.(i)
  done;
  r
let fill v x = Array.fill v 0 (Array.length v) x

let blit src dst =
  check_dims "blit" src dst;
  Array.blit src 0 dst 0 (Array.length src)

let concat = Array.concat

let slice v ~pos ~len = Array.sub v pos len

let max_elt v =
  if Array.length v = 0 then invalid_arg "Vec.max_elt: empty vector";
  Array.fold_left Float.max v.(0) v

let min_elt v =
  if Array.length v = 0 then invalid_arg "Vec.min_elt: empty vector";
  Array.fold_left Float.min v.(0) v

let equal ~eps u v =
  Array.length u = Array.length v
  && begin
       let ok = ref true in
       for i = 0 to Array.length u - 1 do
         if Float.abs (u.(i) -. v.(i)) > eps then ok := false
       done;
       !ok
     end

let pp ppf v =
  Format.fprintf ppf "[@[<hov>%a@]]"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ";@ ")
       (fun ppf x -> Format.fprintf ppf "%.6g" x))
    (Array.to_list v)
