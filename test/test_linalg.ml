(* Unit and property tests for the dense linear-algebra substrate. *)

module Vec = Linalg.Vec
module Mat = Linalg.Mat
module Cholesky = Linalg.Cholesky

let check_float = Alcotest.(check (float 1e-9))

let vec_testable = Alcotest.testable Vec.pp (Vec.equal ~eps:1e-9)

(* ------------------------------------------------------------------ *)
(* Vec                                                                *)
(* ------------------------------------------------------------------ *)

let test_vec_dot () =
  check_float "dot" 32.0 (Vec.dot [| 1.; 2.; 3. |] [| 4.; 5.; 6. |]);
  check_float "dot empty" 0.0 (Vec.dot [||] [||])

let test_vec_dot_mismatch () =
  Alcotest.check_raises "mismatch"
    (Invalid_argument "Vec.dot: dimension mismatch (2 vs 3)") (fun () ->
      ignore (Vec.dot [| 1.; 2. |] [| 1.; 2.; 3. |]))

let test_vec_nrm2 () =
  check_float "3-4-5" 5.0 (Vec.nrm2 [| 3.; 4. |]);
  check_float "zero" 0.0 (Vec.nrm2 [| 0.; 0.; 0. |]);
  (* Scaled accumulation avoids overflow. *)
  let big = Vec.make 2 1e200 in
  Alcotest.(check bool) "no overflow" true (Float.is_finite (Vec.nrm2 big))

let test_vec_norms () =
  let v = [| -3.; 1.; 2. |] in
  check_float "amax" 3.0 (Vec.amax v);
  check_float "asum" 6.0 (Vec.asum v);
  check_float "max_elt" 2.0 (Vec.max_elt v);
  check_float "min_elt" (-3.0) (Vec.min_elt v)

let test_vec_axpy () =
  let y = [| 1.; 1.; 1. |] in
  Vec.axpy 2.0 [| 1.; 2.; 3. |] y;
  Alcotest.check vec_testable "axpy" [| 3.; 5.; 7. |] y

let test_vec_arith () =
  let u = [| 1.; 2. |] and v = [| 3.; 5. |] in
  Alcotest.check vec_testable "add" [| 4.; 7. |] (Vec.add u v);
  Alcotest.check vec_testable "sub" [| -2.; -3. |] (Vec.sub u v);
  Alcotest.check vec_testable "neg" [| -1.; -2. |] (Vec.neg u);
  Alcotest.check vec_testable "mul" [| 3.; 10. |] (Vec.mul u v);
  Alcotest.check vec_testable "div" [| 3.; 2.5 |] (Vec.div v u);
  Alcotest.check vec_testable "scale" [| 2.; 4. |] (Vec.scale 2.0 u)

let test_vec_slice_concat () =
  let v = Vec.concat [ [| 1.; 2. |]; [| 3. |]; [||] ] in
  Alcotest.check vec_testable "concat" [| 1.; 2.; 3. |] v;
  Alcotest.check vec_testable "slice" [| 2.; 3. |] (Vec.slice v ~pos:1 ~len:2)

(* ------------------------------------------------------------------ *)
(* Mat                                                                *)
(* ------------------------------------------------------------------ *)

let mat22 a b c d = Mat.of_rows [ [| a; b |]; [| c; d |] ]

let test_mat_mul_vec () =
  let a = mat22 1. 2. 3. 4. in
  Alcotest.check vec_testable "A·x" [| 5.; 11. |] (Mat.mul_vec a [| 1.; 2. |]);
  Alcotest.check vec_testable "Aᵀ·x" [| 7.; 10. |] (Mat.mul_tvec a [| 1.; 2. |])

let test_mat_mul () =
  let a = mat22 1. 2. 3. 4. and b = mat22 0. 1. 1. 0. in
  let c = Mat.mul a b in
  check_float "c00" 2.0 (Mat.get c 0 0);
  check_float "c01" 1.0 (Mat.get c 0 1);
  check_float "c10" 4.0 (Mat.get c 1 0);
  check_float "c11" 3.0 (Mat.get c 1 1)

let test_mat_transpose () =
  let a = Mat.init 2 3 (fun i j -> float_of_int ((10 * i) + j)) in
  let at = Mat.transpose a in
  Alcotest.(check int) "rows" 3 (Mat.rows at);
  Alcotest.(check int) "cols" 2 (Mat.cols at);
  check_float "entry" (Mat.get a 1 2) (Mat.get at 2 1)

let test_mat_gram () =
  let a = Mat.of_rows [ [| 1.; 2. |]; [| 3.; 4. |]; [| 5.; 6. |] ] in
  let g = Mat.gram a in
  let expected = Mat.mul (Mat.transpose a) a in
  Alcotest.(check bool) "AᵀA" true (Mat.equal ~eps:1e-12 g expected)

let test_mat_gram_weighted () =
  let a = Mat.of_rows [ [| 1.; 2. |]; [| 3.; 4. |] ] in
  let w = [| 2.0; 0.5 |] in
  let g = Mat.gram_weighted a w in
  (* Aᵀ·diag(w)·A by hand. *)
  let d = mat22 2.0 0.0 0.0 0.5 in
  let expected = Mat.mul (Mat.transpose a) (Mat.mul d a) in
  Alcotest.(check bool) "weighted" true (Mat.equal ~eps:1e-12 g expected)

let test_mat_identity () =
  let i3 = Mat.identity 3 in
  let x = [| 7.; -2.; 0.5 |] in
  Alcotest.check vec_testable "I·x" x (Mat.mul_vec i3 x)

(* ------------------------------------------------------------------ *)
(* Cholesky                                                           *)
(* ------------------------------------------------------------------ *)

let spd_3 =
  (* A = Mᵀ·M + I for a fixed M — strictly positive definite. *)
  let m = Mat.of_rows [ [| 2.; -1.; 0. |]; [| 1.; 3.; 1. |]; [| 0.; 1.; 1. |] ] in
  let a = Mat.gram m in
  Mat.add a (Mat.identity 3)

let test_cholesky_roundtrip () =
  let f = Cholesky.factor spd_3 in
  check_float "no shift needed" 0.0 f.Cholesky.shift;
  let recon = Mat.mul f.Cholesky.l (Mat.transpose f.Cholesky.l) in
  Alcotest.(check bool) "L·Lᵀ = A" true (Mat.equal ~eps:1e-9 recon spd_3)

let test_cholesky_solve () =
  let f = Cholesky.factor spd_3 in
  let b = [| 1.; 2.; 3. |] in
  let x = Cholesky.solve f b in
  Alcotest.check vec_testable "A·x = b" b (Mat.mul_vec spd_3 x)

let test_cholesky_shifted () =
  (* Singular matrix: factor succeeds only through the diagonal shift. *)
  let a = mat22 1.0 1.0 1.0 1.0 in
  let f = Cholesky.factor a in
  Alcotest.(check bool) "positive shift" true (f.Cholesky.shift > 0.0)

let test_cholesky_indefinite_fails () =
  let a = mat22 0.0 1.0 1.0 0.0 in
  Alcotest.check_raises "indefinite" Cholesky.Not_positive_definite (fun () ->
      ignore (Cholesky.factor ~max_shift:1e-12 a))

(* ------------------------------------------------------------------ *)
(* Properties                                                         *)
(* ------------------------------------------------------------------ *)

let gen_vec n =
  QCheck2.Gen.(array_size (return n) (float_range (-100.0) 100.0))

let prop_triangle_inequality =
  QCheck2.Test.make ~name:"nrm2 triangle inequality" ~count:200
    QCheck2.Gen.(pair (gen_vec 8) (gen_vec 8))
    (fun (u, v) ->
      Vec.nrm2 (Vec.add u v) <= Vec.nrm2 u +. Vec.nrm2 v +. 1e-9)

let prop_cauchy_schwarz =
  QCheck2.Test.make ~name:"Cauchy-Schwarz" ~count:200
    QCheck2.Gen.(pair (gen_vec 6) (gen_vec 6))
    (fun (u, v) ->
      Float.abs (Vec.dot u v) <= (Vec.nrm2 u *. Vec.nrm2 v) +. 1e-6)

let gen_spd n =
  (* Random MᵀM + I is SPD. *)
  QCheck2.Gen.map
    (fun rows ->
      let m = Mat.of_arrays rows in
      Mat.add (Mat.gram m) (Mat.identity n))
    QCheck2.Gen.(array_size (return n) (gen_vec n))

let prop_cholesky_solve =
  QCheck2.Test.make ~name:"Cholesky solves SPD systems" ~count:100
    QCheck2.Gen.(pair (gen_spd 5) (gen_vec 5))
    (fun (a, b) ->
      let f = Cholesky.factor a in
      let x = Cholesky.solve f b in
      let r = Vec.sub (Mat.mul_vec a x) b in
      Vec.nrm2 r <= 1e-6 *. Float.max 1.0 (Vec.nrm2 b))

let prop_mul_tvec_consistent =
  QCheck2.Test.make ~name:"mul_tvec = transpose then mul_vec" ~count:100
    QCheck2.Gen.(pair (array_size (return 4) (gen_vec 3)) (gen_vec 4))
    (fun (rows, x) ->
      let a = Mat.of_arrays rows in
      Vec.equal ~eps:1e-9 (Mat.mul_tvec a x) (Mat.mul_vec (Mat.transpose a) x))


(* ------------------------------------------------------------------ *)
(* Additional edge cases                                               *)
(* ------------------------------------------------------------------ *)

let test_mat_update_and_bounds () =
  let a = Mat.create 2 2 in
  Mat.update a 0 1 (fun x -> x +. 5.0);
  check_float "update" 5.0 (Mat.get a 0 1);
  Alcotest.check_raises "get out of bounds"
    (Invalid_argument "Mat.get: index out of bounds") (fun () ->
      ignore (Mat.get a 2 0));
  Alcotest.check_raises "set out of bounds"
    (Invalid_argument "Mat.set: index out of bounds") (fun () ->
      Mat.set a 0 2 1.0)

let test_mat_ragged_rejected () =
  Alcotest.check_raises "ragged" (Invalid_argument "Mat.of_arrays: ragged rows")
    (fun () -> ignore (Mat.of_arrays [| [| 1.0 |]; [| 1.0; 2.0 |] |]))

let test_vec_blit_fill () =
  let v = Vec.create 3 in
  Vec.fill v 2.0;
  Alcotest.check vec_testable "fill" [| 2.; 2.; 2. |] v;
  Vec.blit [| 1.; 2.; 3. |] v;
  Alcotest.check vec_testable "blit" [| 1.; 2.; 3. |] v;
  Alcotest.check_raises "blit dims"
    (Invalid_argument "Vec.blit: dimension mismatch (2 vs 3)") (fun () ->
      Vec.blit [| 1.; 2. |] v)

let test_vec_scal_in_place () =
  let v = [| 1.0; -2.0 |] in
  Vec.scal (-3.0) v;
  Alcotest.check vec_testable "scal" [| -3.0; 6.0 |] v

let test_vec_equal_dims () =
  Alcotest.(check bool) "different dims" false
    (Vec.equal ~eps:1.0 [| 1.0 |] [| 1.0; 2.0 |])

let test_cholesky_not_square () =
  Alcotest.check_raises "not square"
    (Invalid_argument "Cholesky.factor: not square") (fun () ->
      ignore (Cholesky.factor (Mat.create 2 3)))

let test_triangular_solves_direct () =
  let l = Mat.of_rows [ [| 2.0; 0.0 |]; [| 1.0; 3.0 |] ] in
  let x = Cholesky.solve_lower l [| 4.0; 11.0 |] in
  Alcotest.check vec_testable "forward" [| 2.0; 3.0 |] x;
  let y = Cholesky.solve_upper_t l [| 2.0; 3.0 |] in
  (* lᵀ y = b: [2 1; 0 3] y = (2,3) → y₂ = 1, 2y₁ + 1 = 2 → y₁ = 0.5. *)
  Alcotest.check vec_testable "backward" [| 0.5; 1.0 |] y


(* ------------------------------------------------------------------ *)
(* Flat-array kernel                                                  *)
(* ------------------------------------------------------------------ *)

let test_mat_data_aliasing () =
  let d = [| 1.; 2.; 3.; 4.; 5.; 6. |] in
  let a = Mat.of_data 2 3 d in
  check_float "row-major (1, 0)" 4.0 (Mat.get a 1 0);
  Mat.set a 0 2 9.0;
  check_float "storage is shared" 9.0 d.(2);
  Alcotest.(check bool) "data is the storage" true (Mat.data a == d);
  Alcotest.check_raises "length checked"
    (Invalid_argument "Mat.of_data: data length") (fun () ->
      ignore (Mat.of_data 2 2 d))

(* Random symmetric matrices of order n from a seed: [B·Bᵀ + I]
   (well conditioned), [B·Bᵀ] with rank r < n (singular, so the factor
   may need a shift), or [B·Bᵀ − c·I] with the same rank-deficient B
   and c far beyond the largest shift (indefinite). *)
type spd_kind = Definite | Singular | Indefinite

let random_sym kind n seed =
  let st = Random.State.make [| seed |] in
  let r =
    match kind with
    | Definite -> n
    | Singular | Indefinite -> 1 + Random.State.int st (max 1 (n - 1))
  in
  let b = Mat.init n r (fun _ _ -> Random.State.float st 2.0 -. 1.0) in
  let bbt = Mat.gram (Mat.transpose b) in
  match kind with
  | Definite -> Mat.add bbt (Mat.identity n)
  | Singular -> bbt
  | Indefinite ->
    let c = (0.5 *. Mat.frobenius bbt) +. 1.0 in
    Mat.init n n (fun i j -> Mat.get bbt i j -. if i = j then c else 0.0)

let prop_cholesky_kernel =
  QCheck2.Test.make ~name:"Cholesky of random SPD, n <= 60" ~count:200
    QCheck2.Gen.(
      triple (int_range 1 60)
        (oneofl [ Definite; Singular; Indefinite ])
        (int_bound 1_000_000))
    (fun (n, kind, seed) ->
      let a = random_sym kind n seed in
      match (kind, Cholesky.factor a) with
      | Indefinite, _ -> false
      | exception Cholesky.Not_positive_definite -> kind = Indefinite
      | (Definite | Singular), { Cholesky.l; shift } ->
        let shifted =
          Mat.init n n (fun i j ->
              Mat.get a i j +. if i = j then shift else 0.0)
        in
        let recon = Mat.mul l (Mat.transpose l) in
        let err =
          Mat.frobenius
            (Mat.init n n (fun i j -> Mat.get recon i j -. Mat.get shifted i j))
        in
        let b = Array.init n (fun i -> float_of_int ((i mod 7) - 3)) in
        let x = Cholesky.solve { Cholesky.l; shift } b in
        let res = Vec.nrm2 (Vec.sub (Mat.mul_vec shifted x) b) in
        err <= 1e-12 *. Mat.frobenius a
        && res
           <= 1e-10 *. ((Mat.frobenius shifted *. Vec.nrm2 x) +. Vec.nrm2 b))

(* Words allocated per call of [f], averaged over [reps] calls after
   one warm-up call: minor-heap words plus words allocated directly in
   the major heap (large arrays).  [Gc.allocated_bytes] is not used
   because on OCaml 5.1 its minor part only advances at minor
   collections. *)
let allocated_words ~reps f =
  ignore (Sys.opaque_identity (f ()));
  let _, promoted0, major0 = Gc.counters () in
  let minor0 = Gc.minor_words () in
  for _ = 1 to reps do
    ignore (Sys.opaque_identity (f ()))
  done;
  let minor1 = Gc.minor_words () in
  let _, promoted1, major1 = Gc.counters () in
  (minor1 -. minor0 +. (major1 -. major0) -. (promoted1 -. promoted0))
  /. float_of_int reps

(* The kernel works on the flat storage of [Mat.t]: a solve allocates
   its two result vectors, a factorisation its one n×n factor (reused
   across shift attempts), and nothing per element.  With a boxed
   float per element access a solve at n = 40 allocated about 3.5k
   words and a factor about 18k words besides its factor. *)
let test_cholesky_allocation () =
  let n = 40 in
  let vector = float_of_int (n + 1) and matrix = float_of_int ((n * n) + 1) in
  let within what words budget =
    Alcotest.(check bool)
      (Printf.sprintf "%s: %.0f words <= %.0f" what words budget)
      true (words <= budget)
  in
  let a = random_sym Definite n 7 in
  let f = Cholesky.factor a in
  let b = Array.init n float_of_int in
  within "solve" (allocated_words ~reps:200 (fun () -> Cholesky.solve f b))
    ((2.0 *. vector) +. 16.0);
  within "factor" (allocated_words ~reps:50 (fun () -> Cholesky.factor a))
    (matrix +. 64.0);
  let singular = random_sym Singular n 7 in
  Alcotest.(check bool) "singular input takes a shift" true
    ((Cholesky.factor singular).Cholesky.shift > 0.0);
  within "shifted factor"
    (allocated_words ~reps:50 (fun () -> Cholesky.factor singular))
    (matrix +. 64.0);
  let into = Mat.create n n in
  within "factor into storage"
    (allocated_words ~reps:50 (fun () -> Cholesky.factor ~into singular))
    64.0

let () =
  Alcotest.run "linalg"
    [
      ( "vec",
        [
          Alcotest.test_case "dot" `Quick test_vec_dot;
          Alcotest.test_case "dot mismatch" `Quick test_vec_dot_mismatch;
          Alcotest.test_case "nrm2" `Quick test_vec_nrm2;
          Alcotest.test_case "norms" `Quick test_vec_norms;
          Alcotest.test_case "axpy" `Quick test_vec_axpy;
          Alcotest.test_case "arith" `Quick test_vec_arith;
          Alcotest.test_case "slice/concat" `Quick test_vec_slice_concat;
        ] );
      ( "mat",
        [
          Alcotest.test_case "mul_vec" `Quick test_mat_mul_vec;
          Alcotest.test_case "mul" `Quick test_mat_mul;
          Alcotest.test_case "transpose" `Quick test_mat_transpose;
          Alcotest.test_case "gram" `Quick test_mat_gram;
          Alcotest.test_case "gram_weighted" `Quick test_mat_gram_weighted;
          Alcotest.test_case "identity" `Quick test_mat_identity;
        ] );
      ( "cholesky",
        [
          Alcotest.test_case "roundtrip" `Quick test_cholesky_roundtrip;
          Alcotest.test_case "solve" `Quick test_cholesky_solve;
          Alcotest.test_case "shifted" `Quick test_cholesky_shifted;
          Alcotest.test_case "indefinite" `Quick test_cholesky_indefinite_fails;
        ] );
      ( "edge-cases",
        [
          Alcotest.test_case "mat update/bounds" `Quick
            test_mat_update_and_bounds;
          Alcotest.test_case "ragged rejected" `Quick test_mat_ragged_rejected;
          Alcotest.test_case "vec blit/fill" `Quick test_vec_blit_fill;
          Alcotest.test_case "vec scal" `Quick test_vec_scal_in_place;
          Alcotest.test_case "vec equal dims" `Quick test_vec_equal_dims;
          Alcotest.test_case "cholesky not square" `Quick
            test_cholesky_not_square;
          Alcotest.test_case "triangular solves" `Quick
            test_triangular_solves_direct;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_triangle_inequality;
            prop_cauchy_schwarz;
            prop_cholesky_solve;
            prop_mul_tvec_consistent;
          ] );
      ( "kernel",
        [
          Alcotest.test_case "of_data/data" `Quick test_mat_data_aliasing;
          Alcotest.test_case "allocation budget" `Quick
            test_cholesky_allocation;
          QCheck_alcotest.to_alcotest prop_cholesky_kernel;
        ] );
    ]
