(* Sparse KKT path: the sparse Cholesky core, the canonicalised sparse
   rows, and the fallback-vs-sparse differential oracle
   (docs/solver.md).

   The oracle is the solver's own dense fallback: the reference solve
   forces every iteration onto the dense Cholesky of the full Gram
   matrix, and on every instance the sparse path must reproduce its
   verdict, its objective and its certificate.  The unit half pins the
   mutation cases a naive CSC implementation gets wrong — duplicate
   triplets, unsorted rows, rank-deficient and singular matrices,
   empty columns. *)

module Vec = Linalg.Vec
module Mat = Linalg.Mat
module Sparse = Linalg.Sparse
module Cholesky = Linalg.Cholesky
module Sparse_rows = Conic.Sparse_rows
module Cone = Conic.Cone
module Kkt = Conic.Kkt
module Socp = Conic.Socp
module Model = Conic.Model
module Config = Taskgraph.Config
module Mapping = Budgetbuf.Mapping
module Certify = Budgetbuf.Certify
module Socp_builder = Budgetbuf.Socp_builder

let check_float = Alcotest.(check (float 1e-9))

(* Every iteration on the dense fallback: the reference solve. *)
let dense_reference =
  {
    Socp.default_params with
    Socp.inject = Some (fun _ -> Some Socp.Dense_kkt);
  }

(* ------------------------------------------------------------------ *)
(* Sparse symmetric construction                                       *)
(* ------------------------------------------------------------------ *)

let test_create_mirrors_and_sums () =
  (* Lower-triangle input is mirrored up; duplicates are summed. *)
  let a =
    Sparse.create ~n:3
      [ (0, 0, 4.0); (1, 0, 1.0); (0, 1, 1.0); (1, 1, 3.0); (2, 2, 5.0) ]
  in
  Alcotest.(check int) "dim" 3 (Sparse.dim a);
  (* (1,0) and (0,1) are the same upper entry: 1 + 1 = 2. *)
  check_float "summed duplicate" 2.0 (Sparse.get a 0 1);
  check_float "mirror read" 2.0 (Sparse.get a 1 0);
  check_float "diag" 4.0 (Sparse.get a 0 0);
  check_float "outside pattern" 0.0 (Sparse.get a 0 2);
  let d = Sparse.to_dense a in
  check_float "dense mirror" 2.0 (Mat.get d 1 0)

let test_create_out_of_range () =
  Alcotest.check_raises "row out of range"
    (Invalid_argument "Sparse.create: index out of range") (fun () ->
      ignore (Sparse.create ~n:3 [ (3, 0, 1.0) ]))

let test_structural_zeros_kept () =
  (* An explicit zero stays in the pattern so [add] can refill it. *)
  let a = Sparse.create ~n:2 [ (0, 0, 1.0); (0, 1, 0.0); (1, 1, 1.0) ] in
  Alcotest.(check int) "nnz keeps structural zero" 3 (Sparse.nnz a);
  Sparse.add a 0 1 0.5;
  check_float "refilled" 0.5 (Sparse.get a 0 1)

let test_add_outside_pattern () =
  let a = Sparse.create ~n:3 [ (0, 0, 1.0); (1, 1, 1.0); (2, 2, 1.0) ] in
  Alcotest.check_raises "outside pattern"
    (Invalid_argument "Sparse.add: entry outside the pattern") (fun () ->
      Sparse.add a 0 2 1.0)

let test_clear_keeps_pattern () =
  let a = Sparse.create ~n:2 [ (0, 0, 4.0); (0, 1, 1.0); (1, 1, 3.0) ] in
  Sparse.clear a;
  Alcotest.(check int) "nnz" 3 (Sparse.nnz a);
  check_float "cleared" 0.0 (Sparse.get a 0 0);
  Sparse.add a 0 0 4.0;
  Sparse.add a 0 1 1.0;
  Sparse.add a 1 1 3.0;
  check_float "refilled" 4.0 (Sparse.get a 0 0)

let test_mul_vec () =
  let a = Sparse.create ~n:2 [ (0, 0, 4.0); (0, 1, 1.0); (1, 1, 3.0) ] in
  let y = Sparse.mul_vec a [| 1.0; 2.0 |] in
  check_float "row 0" 6.0 y.(0);
  check_float "row 1" 7.0 y.(1)

(* ------------------------------------------------------------------ *)
(* Factorisation: agreement with the dense oracle                      *)
(* ------------------------------------------------------------------ *)

(* Random sparse SPD matrix: random upper off-diagonals plus a
   dominant diagonal. *)
let random_spd ~n seed =
  let rng = Workloads.Rng.create (Int64.of_int seed) in
  let triplets = ref [] in
  for i = 0 to n - 1 do
    triplets :=
      (i, i, float_of_int n +. Workloads.Rng.float rng ~lo:0.0 ~hi:4.0)
      :: !triplets;
    for j = i + 1 to n - 1 do
      if Workloads.Rng.float rng ~lo:0.0 ~hi:1.0 < 0.3 then
        triplets :=
          (i, j, Workloads.Rng.float rng ~lo:(-1.0) ~hi:1.0) :: !triplets
    done
  done;
  Sparse.create ~n !triplets

let random_rhs ~n seed =
  let rng = Workloads.Rng.create (Int64.of_int (seed + 7919)) in
  Array.init n (fun _ -> Workloads.Rng.float rng ~lo:(-1.0) ~hi:1.0)

let prop_sparse_solve_matches_dense =
  QCheck2.Test.make ~name:"sparse Cholesky solve matches dense oracle"
    ~count:100
    QCheck2.Gen.(pair (int_range 2 20) (int_range 0 100_000))
    (fun (n, seed) ->
      let a = random_spd ~n seed in
      let b = random_rhs ~n seed in
      let sy = Sparse.symbolic a in
      let xs = Sparse.solve (Sparse.factor sy a) b in
      let xd = Cholesky.solve (Cholesky.factor (Sparse.to_dense a)) b in
      Array.for_all2 (fun u v -> Float.abs (u -. v) <= 1e-7) xs xd)

let prop_min_degree_is_permutation =
  QCheck2.Test.make ~name:"min_degree is a permutation of 0..n-1" ~count:100
    QCheck2.Gen.(pair (int_range 1 30) (int_range 0 100_000))
    (fun (n, seed) ->
      let a = random_spd ~n seed in
      let perm = Sparse.min_degree a in
      let seen = Array.make n false in
      Array.length perm = n
      && Array.for_all
           (fun p ->
             p >= 0 && p < n
             &&
             if seen.(p) then false
             else begin
               seen.(p) <- true;
               true
             end)
           perm)

let prop_refactor_reuses_pattern =
  QCheck2.Test.make
    ~name:"clear/add refill refactors to the same solution" ~count:50
    QCheck2.Gen.(pair (int_range 2 12) (int_range 0 100_000))
    (fun (n, seed) ->
      let a = random_spd ~n seed in
      let sy = Sparse.symbolic a in
      let b = random_rhs ~n seed in
      let x1 = Sparse.solve (Sparse.factor sy a) b in
      (* Snapshot, clear, refill the same values through [add], and the
         refactorisation must be bit-identical. *)
      let dense = Sparse.to_dense a in
      Sparse.clear a;
      for i = 0 to n - 1 do
        for j = i to n - 1 do
          let v = Mat.get dense i j in
          if v <> 0.0 then Sparse.add a i j v
        done
      done;
      let x2 = Sparse.solve (Sparse.factor sy a) b in
      Array.for_all2 (fun u v -> Float.equal u v) x1 x2)

let test_rank_deficient_refused_then_shifted () =
  (* [1 1; 1 1] is PSD but singular: the strict factorisation must
     refuse it, and the shift policy must recover. *)
  let a =
    Sparse.create ~n:2 [ (0, 0, 1.0); (0, 1, 1.0); (1, 1, 1.0) ]
  in
  let sy = Sparse.symbolic a in
  Alcotest.(check bool)
    "refactor at shift 0 refuses" true
    (Sparse.refactor sy a ~shift:0.0 = None);
  let f = Sparse.factor sy a in
  Alcotest.(check bool) "shift applied" true (Sparse.shift f > 0.0)

let test_indefinite_raises () =
  let a =
    Sparse.create ~n:2 [ (0, 0, 1.0); (0, 1, 4.0); (1, 1, 1.0) ]
  in
  let sy = Sparse.symbolic a in
  Alcotest.check_raises "indefinite" Sparse.Not_positive_definite (fun () ->
      ignore (Sparse.factor ~max_shift:1e-8 sy a))

let test_zero_matrix_regularised () =
  (* All-zero values: the strict factorisation refuses, and the shift
     policy (falling back to unit scale when the Frobenius norm is
     zero) regularises instead of looping. *)
  let a = Sparse.create ~n:2 [ (0, 0, 0.0); (1, 1, 0.0) ] in
  let sy = Sparse.symbolic a in
  Alcotest.(check bool)
    "refactor at shift 0 refuses" true
    (Sparse.refactor sy a ~shift:0.0 = None);
  let f = Sparse.factor sy a in
  Alcotest.(check bool) "shift applied" true (Sparse.shift f > 0.0)

let test_empty_column_recovered_by_shift () =
  (* Column 1 has no entries at all (not even a diagonal): a zero pivot
     at shift 0, recovered by the progressive shift. *)
  let a = Sparse.create ~n:3 [ (0, 0, 2.0); (2, 2, 3.0) ] in
  let sy = Sparse.symbolic a in
  Alcotest.(check bool)
    "refactor at shift 0 refuses" true
    (Sparse.refactor sy a ~shift:0.0 = None);
  let f = Sparse.factor ~max_shift:1.0 sy a in
  Alcotest.(check bool) "shift applied" true (Sparse.shift f > 0.0)

let test_identity_permutation_order () =
  (* [symbolic ?order] accepts an explicit ordering; identity must give
     the same solutions as min-degree. *)
  let a = random_spd ~n:8 42 in
  let b = random_rhs ~n:8 42 in
  let x1 = Sparse.solve (Sparse.factor (Sparse.symbolic a) a) b in
  let order = Array.init 8 Fun.id in
  let x2 = Sparse.solve (Sparse.factor (Sparse.symbolic ~order a) a) b in
  Array.iteri
    (fun i v -> Alcotest.(check (float 1e-8)) "component" v x2.(i))
    x1

let test_bad_order_rejected () =
  let a = Sparse.create ~n:2 [ (0, 0, 1.0); (1, 1, 1.0) ] in
  Alcotest.check_raises "not a permutation"
    (Invalid_argument "Sparse.symbolic: order is not a permutation")
    (fun () -> ignore (Sparse.symbolic ~order:[| 0; 0 |] a))

(* On a random pattern of the given density the heap ordering must
   pick exactly the vertices the quadratic scan picks. *)
let prop_min_degree_matches_reference =
  QCheck2.Test.make ~name:"min_degree matches the quadratic reference"
    ~count:200
    QCheck2.Gen.(
      triple (int_range 1 80) (float_range 0.0 0.5) (int_range 0 1_000_000))
    (fun (n, density, seed) ->
      let rng = Workloads.Rng.create (Int64.of_int seed) in
      let triplets = ref [] in
      for i = 0 to n - 1 do
        triplets := (i, i, 1.0) :: !triplets;
        for j = i + 1 to n - 1 do
          if Workloads.Rng.float rng ~lo:0.0 ~hi:1.0 < density then
            triplets := (i, j, 1.0) :: !triplets
        done
      done;
      let a = Sparse.create ~n !triplets in
      Sparse.min_degree a = Kkt_reference.min_degree a)

(* ------------------------------------------------------------------ *)
(* Sparse_rows canonicalisation                                        *)
(* ------------------------------------------------------------------ *)

let test_of_rows_canonicalises () =
  (* Unsorted entries, a duplicate column and an explicit zero: the
     stored row must come back sorted, summed and zero-free. *)
  let t =
    Sparse_rows.of_rows ~cols:4
      [| [ (2, 1.0); (0, 3.0); (2, 0.5); (3, 0.0) ]; [] |]
  in
  Alcotest.(check (list (pair int (float 1e-12))))
    "canonical row"
    [ (0, 3.0); (2, 1.5) ]
    (Sparse_rows.row t 0);
  Alcotest.(check int) "nnz" 2 (Sparse_rows.nnz t);
  Alcotest.(check int) "cols" 4 (Sparse_rows.cols t);
  (* The matrix-vector product sees the canonical values. *)
  let y = Sparse_rows.mul_vec t [| 1.0; 1.0; 2.0; 100.0 |] in
  check_float "mul_vec" 6.0 y.(0)

let test_of_rows_out_of_range () =
  Alcotest.check_raises "column out of range"
    (Invalid_argument "Sparse_rows: column index out of range") (fun () ->
      ignore (Sparse_rows.of_rows ~cols:4 [| [ (4, 1.0) ] |]))

(* The workspace's Gram refill at the identity scaling (s = z = e, so
   W⁻¹·G = G) must equal the dense Gram matrix of G. *)
let test_fill_gram_matches_dense_gram () =
  let t =
    Sparse_rows.of_rows ~cols:3
      [| [ (0, 1.0); (2, 2.0) ]; [ (1, 3.0) ]; [ (0, -1.0); (1, 1.0) ] |]
  in
  let cone = Cone.make [ Cone.Nonneg 3 ] in
  let ws = Kkt.create ~g:t cone in
  let e = Cone.identity cone in
  Kkt.scale_rows ws (Cone.nt_scaling cone ~s:e ~z:e);
  Kkt.fill_gram ws;
  let pattern = Kkt.gram ws in
  let dense = Sparse_rows.gram t in
  for i = 0 to 2 do
    for j = 0 to 2 do
      Alcotest.(check (float 1e-12))
        (Printf.sprintf "entry (%d,%d)" i j)
        (Mat.get dense i j) (Sparse.get pattern i j)
    done
  done

let test_gram_pattern_soc_union () =
  (* Rows 0-1 form a SOC block: the NT scaling mixes them, so the
     pattern must contain the cross term (0,1) even though no single
     row touches both columns. *)
  let t =
    Sparse_rows.of_rows ~cols:2 [| [ (0, 1.0) ]; [ (1, 1.0) ] |]
  in
  let gram cone = Kkt.gram (Kkt.create ~g:t (Cone.make cone)) in
  let plain = gram [ Cone.Nonneg 2 ] in
  let soc = gram [ Cone.Soc 2 ] in
  check_float "no block: no cross term" 0.0 (Sparse.get plain 0 1);
  Alcotest.(check int) "no block: nnz" 2 (Sparse.nnz plain);
  Alcotest.(check int) "soc block adds cross term" 3 (Sparse.nnz soc)

(* ------------------------------------------------------------------ *)
(* KKT workspace against the list-row reference                        *)
(* ------------------------------------------------------------------ *)

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* A random cone program shape: 1-6 blocks, orthants of 1-6 rows and
   second-order cones of 1-5 rows, over 1-24 columns.  Rows carry 0-4
   entries from a small value set, sometimes a duplicate column whose
   terms cancel in [of_rows], sometimes a subnormal entry that the
   scaling flushes to zero, and now and then an orthant row longer
   than the dense-row threshold.  (s, z) is strictly interior. *)
let random_workspace_case seed =
  let rng = Workloads.Rng.create (Int64.of_int seed) in
  let int bound = Workloads.Rng.int rng ~bound in
  let f lo hi = Workloads.Rng.float rng ~lo ~hi in
  let n = 1 + int 24 in
  let blocks =
    List.init (1 + int 6) (fun _ ->
        if Workloads.Rng.bool rng then Cone.Soc (1 + int 5)
        else Cone.Nonneg (1 + int 6))
  in
  let value () =
    match int 6 with
    | 0 -> 1.0
    | 1 -> -1.0
    | 2 -> 0.5
    | 3 -> 1e-323
    | _ -> f (-3.0) 3.0
  in
  let row ~orthant =
    if orthant && int 8 = 0 then
      List.init
        (Kkt.dense_row_threshold + 1 + int 8)
        (fun _ -> (int n, f 0.5 2.0))
    else begin
      let entries = List.init (int 5) (fun _ -> (int n, value ())) in
      if int 3 = 0 then
        let j = int n and v = value () in
        (j, v) :: (j, -.v) :: entries
      else entries
    end
  in
  let rows =
    List.concat_map
      (function
        | Cone.Nonneg d -> List.init d (fun _ -> row ~orthant:true)
        | Cone.Soc d -> List.init d (fun _ -> row ~orthant:false))
      blocks
  in
  let g = Sparse_rows.of_rows ~cols:n (Array.of_list rows) in
  let cone = Cone.make blocks in
  let interior () =
    Array.concat
      (List.map
         (function
           | Cone.Nonneg d -> Array.init d (fun _ -> f 0.1 10.0)
           | Cone.Soc d ->
             let v = Array.init d (fun _ -> f (-2.0) 2.0) in
             let tail = ref 0.0 in
             for i = 1 to d - 1 do
               tail := !tail +. (v.(i) *. v.(i))
             done;
             v.(0) <- sqrt !tail +. f 0.05 2.0;
             v)
         blocks)
  in
  (g, cone, interior (), interior ())

let prop_workspace_matches_reference =
  QCheck2.Test.make
    ~name:"workspace scaled rows and Gram match the list reference bit for bit"
    ~count:500 (QCheck2.Gen.int_range 0 1_000_000)
    (fun seed ->
      let g, cone, s, z = random_workspace_case seed in
      let w = Cone.nt_scaling cone ~s ~z in
      let ws = Kkt.create ~g cone in
      Kkt.scale_rows ws w;
      Kkt.fill_gram ws;
      let reference = Kkt_reference.scale_rows w (Kkt_reference.rows_of g) in
      let scaled = Kkt.scaled ws in
      let rows_match =
        Array.for_all Fun.id
          (Array.mapi
             (fun i r ->
               List.equal
                 (fun (j, v) (j', v') -> j = j' && same_bits v v')
                 r (Sparse_rows.row scaled i))
             reference)
      in
      (* The reference Gram: the dense rows emptied, SOC rows mixed
         within their blocks. *)
      let kept = Array.copy reference in
      Array.iter (fun i -> kept.(i) <- []) (Kkt.dense ws);
      let soc =
        let off = ref 0 in
        List.filter_map
          (fun b ->
            let o = !off in
            match b with
            | Cone.Nonneg d ->
              off := o + d;
              None
            | Cone.Soc d ->
              off := o + d;
              Some (o, d))
          (Cone.blocks cone)
      in
      let structural = Kkt_reference.rows_of g in
      Array.iter (fun i -> structural.(i) <- []) (Kkt.dense ws);
      let pattern =
        Kkt_reference.gram_pattern ~n:(Sparse_rows.cols g) structural ~soc
      in
      Kkt_reference.fill_gram kept ~into:pattern;
      let gram = Kkt.gram ws in
      rows_match
      && Sparse.colptr gram = Sparse.colptr pattern
      && Sparse.rowind gram = Sparse.rowind pattern
      && Array.for_all2 same_bits (Sparse.values gram) (Sparse.values pattern))

(* ------------------------------------------------------------------ *)
(* Fallback-vs-sparse differential oracle                              *)
(* ------------------------------------------------------------------ *)

let rel_close a b = Float.abs (a -. b) <= 1e-4 *. (1.0 +. Float.abs a)

(* The oracle proper: on a random workload the sparse path must agree
   with the dense reference on the verdict, the objective and the
   certificate — and a sparse-accepted mapping must itself certify
   exactly. *)
let prop_differential_oracle =
  QCheck2.Test.make ~name:"sparse agrees with the dense oracle" ~count:300
    QCheck2.Gen.(pair (int_range 2 6) (int_range 0 1_000_000))
    (fun (n, seed) ->
      let rng = Workloads.Rng.create (Int64.of_int seed) in
      let cfg = Workloads.Gen.random_chain rng ~n () in
      let dense = Mapping.solve ~params:dense_reference cfg in
      let sparse = Mapping.solve cfg in
      match (dense, sparse) with
      | Ok d, Ok s ->
        rel_close d.Mapping.objective s.Mapping.objective
        && rel_close d.Mapping.rounded_objective s.Mapping.rounded_objective
        && Certify.certified d.Mapping.certificate
           = Certify.certified s.Mapping.certificate
        && Certify.certified s.Mapping.certificate
        && Float_verify.verify cfg s.Mapping.mapped = []
      | Error de, Error se ->
        String.equal (Mapping.short_reason de) (Mapping.short_reason se)
      | Ok _, Error _ | Error _, Ok _ -> false)

let test_oracle_on_paper_instances () =
  List.iter
    (fun cfg ->
      match
        (Mapping.solve ~params:dense_reference cfg, Mapping.solve cfg)
      with
      | Ok d, Ok s ->
        Alcotest.(check bool)
          "objectives agree" true
          (rel_close d.Mapping.objective s.Mapping.objective);
        Alcotest.(check bool)
          "sparse certifies" true
          (Certify.certified s.Mapping.certificate);
        Alcotest.(check int)
          "no dense fallbacks" 0 s.Mapping.stats.Mapping.kkt_fallbacks
      | _ -> Alcotest.fail "reference and sparse must solve the paper instances")
    [ Workloads.Gen.paper_t1 (); Workloads.Gen.paper_t2 () ]

let test_sparse_infeasible_agrees () =
  (* µ < χ can never be met: the reference and the sparse solve must
     report the same infeasibility verdict. *)
  let cfg = Config.create ~granularity:1.0 () in
  let p1 = Config.add_processor cfg ~name:"p1" ~replenishment:40.0 () in
  let p2 = Config.add_processor cfg ~name:"p2" ~replenishment:40.0 () in
  let m = Config.add_memory cfg ~name:"m" ~capacity:100 in
  let g = Config.add_graph cfg ~name:"t" ~period:0.5 () in
  let wa = Config.add_task cfg g ~name:"wa" ~proc:p1 ~wcet:1.0 () in
  let wb = Config.add_task cfg g ~name:"wb" ~proc:p2 ~wcet:1.0 () in
  ignore (Config.add_buffer cfg g ~name:"b" ~src:wa ~dst:wb ~memory:m ());
  match (Mapping.solve ~params:dense_reference cfg, Mapping.solve cfg) with
  | Error (Mapping.Infeasible _), Error (Mapping.Infeasible _) -> ()
  | _ -> Alcotest.fail "reference and sparse must report infeasibility"

(* ------------------------------------------------------------------ *)
(* Dense rows: Sherman–Morrison–Woodbury against the dense oracle      *)
(* ------------------------------------------------------------------ *)


let rel_err x oracle =
  Vec.nrm2 (Vec.sub x oracle) /. Float.max 1e-300 (Vec.nrm2 oracle)

(* The dense oracle of one KKT solve: the full Gram matrix GᵀW⁻²G and
   a dense Cholesky, dx from the normal equations and
   dz = W⁻²·(G·dx − bz). *)
let dense_kkt_solve ~g cone ~s ~z ~bx ~bz =
  let w = Cone.nt_scaling cone ~s ~z in
  let scaled =
    Sparse_rows.of_rows ~cols:(Sparse_rows.cols g)
      (Kkt_reference.scale_rows w (Kkt_reference.rows_of g))
  in
  let fact = Cholesky.factor (Sparse_rows.gram scaled) in
  let w2 v = Cone.apply_inv w (Cone.apply_inv w v) in
  let rhs = Vec.add bx (Sparse_rows.mul_tvec g (w2 bz)) in
  let dx = Cholesky.solve fact rhs in
  (dx, w2 (Vec.sub (Sparse_rows.mul_vec g dx) bz))

(* A random cone program shape with [dense] shared-resource rows of
   17..n nonzeros among short rows (one bound per column plus a few
   two- and three-term rows), and a three-row SOC block at the end;
   (s, z) strictly interior. *)
let random_dense_row_kkt ~dense seed =
  let rng = Workloads.Rng.create (Int64.of_int seed) in
  let f lo hi = Workloads.Rng.float rng ~lo ~hi in
  let n = 20 + Workloads.Rng.int rng ~bound:13 in
  let short k =
    List.init k (fun _ -> (Workloads.Rng.int rng ~bound:n, f (-2.0) 2.0))
  in
  let bounds = List.init n (fun j -> [ (j, f 0.5 2.0) ]) in
  let extra =
    List.init (Workloads.Rng.int rng ~bound:n) (fun _ ->
        short (2 + Workloads.Rng.int rng ~bound:2))
  in
  let dense_rows =
    List.init dense (fun _ ->
        let k = 17 + Workloads.Rng.int rng ~bound:(n - 16) in
        let start = Workloads.Rng.int rng ~bound:n in
        List.init k (fun i -> ((start + i) mod n, f 0.5 3.0)))
  in
  (* Interleave the dense rows among the short ones. *)
  let orthant =
    List.fold_left
      (fun acc r ->
        let at = Workloads.Rng.int rng ~bound:(List.length acc + 1) in
        List.filteri (fun i _ -> i < at) acc
        @ [ r ] @ List.filteri (fun i _ -> i >= at) acc)
      (bounds @ extra) dense_rows
  in
  let rows = Array.of_list (orthant @ List.init 3 (fun _ -> short 2)) in
  let m = Array.length rows in
  let g = Sparse_rows.of_rows ~cols:n rows in
  let k = List.length orthant in
  let cone = Cone.make [ Cone.Nonneg k; Cone.Soc 3 ] in
  let interior () =
    let v = Array.init m (fun _ -> f 0.1 10.0) in
    v.(k + 1) <- f (-1.0) 1.0;
    v.(k + 2) <- f (-1.0) 1.0;
    v.(k) <- sqrt ((v.(k + 1) ** 2.0) +. (v.(k + 2) ** 2.0)) +. f 0.1 2.0;
    v
  in
  let s = interior () and z = interior () in
  let bx = Array.init n (fun _ -> f (-1.0) 1.0)
  and bz = Array.init m (fun _ -> f (-1.0) 1.0) in
  (g, cone, s, z, bx, bz)

let prop_dense_rows_match_oracle =
  QCheck2.Test.make
    ~name:"dense-row KKT solve matches the dense Cholesky oracle" ~count:200
    QCheck2.Gen.(pair (int_range 1 3) (int_range 0 1_000_000))
    (fun (dense, seed) ->
      let g, cone, s, z, bx, bz = random_dense_row_kkt ~dense seed in
      let dxo, dzo = dense_kkt_solve ~g cone ~s ~z ~bx ~bz in
      let dx, dz, fallbacks = Socp.kkt_solve ~g cone ~s ~z ~bx ~bz in
      fallbacks = 0 && rel_err dx dxo <= 1e-8 && rel_err dz dzo <= 1e-8)

(* Column 19 appears only in dense row 19: dropping that row would
   leave the sparse part of GᵀW⁻²G with an empty column, singular on
   its own, so it stays in the pattern.  Row 20 is dense too and
   covers nothing new, so it is the one added back through the
   low-rank update; the full solve must match the oracle. *)
let test_dense_row_only_variable () =
  let n = 20 in
  let g = Mat.create (n + 2) n in
  for j = 0 to n - 2 do
    Mat.set g j j 1.0
  done;
  for j = 0 to n - 1 do
    Mat.set g (n - 1) j (1.0 +. (0.1 *. float_of_int j))
  done;
  for j = 0 to n - 3 do
    Mat.set g n j (2.0 -. (0.05 *. float_of_int j))
  done;
  Mat.set g (n + 1) 0 (-1.0);
  Mat.set g (n + 1) 1 1.0;
  let g = Sparse_rows.of_mat g in
  let m = n + 2 in
  Alcotest.(check (array int))
    "only the covered dense row is split out" [| n |]
    (Sparse_rows.dense_rows g ~among:[ (0, m) ]
       ~above:Kkt.dense_row_threshold);
  let cone = Cone.make [ Cone.Nonneg m ] in
  let s = Array.init m (fun i -> 0.5 +. (0.05 *. float_of_int i))
  and z = Array.init m (fun i -> 2.0 -. (0.03 *. float_of_int i)) in
  let bx = Array.init n (fun j -> Float.of_int ((j mod 5) - 2))
  and bz = Array.init m (fun i -> 0.1 *. float_of_int (i mod 7)) in
  let dxo, dzo = dense_kkt_solve ~g cone ~s ~z ~bx ~bz in
  let dx, dz, fallbacks = Socp.kkt_solve ~g cone ~s ~z ~bx ~bz in
  Alcotest.(check int) "no dense fallback" 0 fallbacks;
  Alcotest.(check bool) "dx matches the oracle" true (rel_err dx dxo <= 1e-8);
  Alcotest.(check bool) "dz matches the oracle" true (rel_err dz dzo <= 1e-8)

(* Chain 300 keeps all 299 buffers in one memory: with the memory row
   in the pattern the factor held a 299-clique (55192 nonzeros). *)
let test_chain300_factor_without_memory_row () =
  let cfg = Workloads.Gen.chain ~n:300 () in
  let sink = Obs.Sink.ring ~capacity:4096 in
  let r =
    match Mapping.solve ~obs:(Obs.Ctx.make ~sink ()) cfg with
    | Ok r -> r
    | Error e -> Alcotest.failf "chain 300: %s" (Mapping.short_reason e)
  in
  Alcotest.(check bool)
    "certified" true
    (Certify.certified r.Mapping.certificate);
  Alcotest.(check int)
    "no dense fallbacks" 0 r.Mapping.stats.Mapping.kkt_fallbacks;
  match
    List.filter_map
      (fun e ->
        match e.Obs.Trace.event with
        | Obs.Trace.Kkt_factor { phase = "symbolic"; nnz; _ } -> Some nnz
        | _ -> None)
      (Obs.Sink.events sink)
  with
  | [ nnz ] ->
    Alcotest.(check bool)
      (Printf.sprintf "symbolic factor nnz %d < 10000" nnz)
      true (nnz < 10_000)
  | l -> Alcotest.failf "expected one symbolic analysis, got %d" (List.length l)

(* ------------------------------------------------------------------ *)
(* Bit-level pin of the sparse KKT path                                *)
(* ------------------------------------------------------------------ *)

(* The default path — sparse refill, numeric refactorisation, the
   Woodbury update of the dense rows — must keep the order of its
   floating-point operations, as "dense kkt bits" in test_conic.ml does
   for the fallback.  These are the digests of cold default-params
   solves recorded on the list-row kernel that preceded the flat-array
   one; chain 100, multi-job 20 and mesh 8×8 each have one dense row,
   so they pin the Woodbury solve too. *)
let sparse_pin_cases =
  [
    ("paper t1", Workloads.Gen.paper_t1, "cf8daea5be8f9d7b11aa96870644b3f3", 11);
    ("paper t2", Workloads.Gen.paper_t2, "96650aeb301aa0e85e6367b93526f096", 12);
    ( "chain 8",
      (fun () -> Workloads.Gen.chain ~n:8 ()),
      "6aa4743f4e7a14e9dff5ae185e369128",
      24 );
    ( "multijob 3",
      (fun () ->
        Workloads.Gen.multi_job (Workloads.Rng.create 1L) ~jobs:3
          ~tasks_per_job:3 ~procs:3 ()),
      "d2e9d0109b54b8aa8c34d7ea2427f04d",
      17 );
    ( "chain 100",
      (fun () -> Workloads.Gen.chain ~n:100 ()),
      "ca262cf30369d1d300df9e2b4d100a8e",
      27 );
    ( "multijob 20",
      (fun () ->
        Workloads.Gen.multi_job (Workloads.Rng.create 1L) ~jobs:20
          ~tasks_per_job:5 ~procs:20 ()),
      "378ea4144f7c51a1f0091fe198c04333",
      17 );
    ( "mesh 8x8",
      (fun () -> Workloads.Gen.mesh ~rows:8 ~cols:8 ()),
      "b4e770867d2833581267ae7869f67226",
      20 );
  ]

let test_sparse_bit_pin (name, cfg, expected, iterations) () =
  let b = Socp_builder.build (cfg ()) in
  let r = Model.solve b.Socp_builder.model in
  Alcotest.(check int) (name ^ " iterations") iterations
    r.Model.raw.Socp.iterations;
  Alcotest.(check string)
    (name ^ " iterate bits") expected
    (Iterate_digest.of_solution r.Model.raw)

(* ------------------------------------------------------------------ *)
(* Allocation                                                          *)
(* ------------------------------------------------------------------ *)

(* Words allocated per call of [f], averaged over [reps] calls after
   one warm-up call: minor-heap words plus words allocated directly in
   the major heap (large arrays), as in test_linalg.ml. *)
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

let within what words budget =
  Alcotest.(check bool)
    (Printf.sprintf "%s: %.0f words <= %.0f" what words budget)
    true (words <= budget)

(* Factoring into a storage and solving into a buffer allocate no
   array: at n = 200 any per-call vector would cost 200 words.  The
   shifted case runs several attempts on the same storage. *)
let test_factor_solve_allocation () =
  let n = 200 in
  let a = random_spd ~n 11 in
  let sy = Sparse.symbolic a in
  let into = Sparse.factor_storage sy in
  let f = Sparse.factor ~into sy a in
  let b = random_rhs ~n 11 and out = Vec.create n in
  within "factor into storage"
    (allocated_words ~reps:50 (fun () -> Sparse.factor ~into sy a))
    64.0;
  within "solve into buffer"
    (allocated_words ~reps:200 (fun () -> Sparse.solve ~into:out f b))
    16.0;
  let singular =
    Sparse.create ~n:2 [ (0, 0, 1.0); (0, 1, 1.0); (1, 1, 1.0) ]
  in
  let sy = Sparse.symbolic singular in
  let into = Sparse.factor_storage sy in
  Alcotest.(check bool) "singular input takes a shift" true
    (Sparse.shift (Sparse.factor ~into sy singular) > 0.0);
  within "shifted factor into storage"
    (allocated_words ~reps:50 (fun () -> Sparse.factor ~into sy singular))
    64.0

(* A cold solve of chain 8 (24 iterations) allocated 531,199 minor
   words on the list-row kernel; the per-solve workspace keeps it to a
   fraction of that. *)
let test_cold_solve_allocation () =
  let b = Socp_builder.build (Workloads.Gen.chain ~n:8 ()) in
  match Model.lower b.Socp_builder.model with
  | None -> Alcotest.fail "chain 8 lowers"
  | Some { Model.c; g; h; cone; _ } ->
    let solve () = Socp.solve ~c ~g ~h cone in
    ignore (solve ());
    let minor0 = Gc.minor_words () in
    let sol = Sys.opaque_identity (solve ()) in
    let words = Gc.minor_words () -. minor0 in
    Alcotest.(check int) "iterations" 24 sol.Socp.iterations;
    within "cold chain 8 solve, minor words" words 200_000.0

(* ------------------------------------------------------------------ *)
(* Warm starts                                                         *)
(* ------------------------------------------------------------------ *)

let test_warm_start_reaches_same_optimum () =
  let cfg = Workloads.Gen.paper_t1 () in
  let b = Socp_builder.build cfg in
  let cold = Model.solve b.Socp_builder.model in
  Alcotest.(check bool) "cold optimal" true (cold.Model.status = Socp.Optimal);
  let warm =
    {
      Socp.wx = cold.Model.raw.Socp.x;
      ws = cold.Model.raw.Socp.s;
      wz = cold.Model.raw.Socp.z;
    }
  in
  let params = { Socp.default_params with Socp.warm = Some warm } in
  let warmed = Model.solve ~params b.Socp_builder.model in
  Alcotest.(check bool) "warm optimal" true (warmed.Model.status = Socp.Optimal);
  Alcotest.(check bool)
    "same objective" true
    (rel_close cold.Model.objective warmed.Model.objective);
  (* A warm start from the optimum should not take longer than the
     cold solve. *)
  Alcotest.(check bool)
    "no extra iterations" true
    (warmed.Model.raw.Socp.iterations <= cold.Model.raw.Socp.iterations)

let test_warm_start_dimension_mismatch_is_cold () =
  (* A warm point of the wrong dimension is silently rejected: the
     solve must still succeed from the cold start. *)
  let cfg = Workloads.Gen.paper_t1 () in
  let b = Socp_builder.build cfg in
  let warm = { Socp.wx = [| 1.0 |]; ws = [| 1.0 |]; wz = [| 1.0 |] } in
  let params = { Socp.default_params with Socp.warm = Some warm } in
  let r = Model.solve ~params b.Socp_builder.model in
  Alcotest.(check bool) "still optimal" true (r.Model.status = Socp.Optimal)

let test_warm_start_non_finite_is_cold () =
  let cfg = Workloads.Gen.paper_t1 () in
  let b = Socp_builder.build cfg in
  let cold = Model.solve b.Socp_builder.model in
  let wx = Array.copy cold.Model.raw.Socp.x in
  wx.(0) <- Float.nan;
  let warm =
    { Socp.wx; ws = cold.Model.raw.Socp.s; wz = cold.Model.raw.Socp.z }
  in
  let params = { Socp.default_params with Socp.warm = Some warm } in
  let r = Model.solve ~params b.Socp_builder.model in
  Alcotest.(check bool) "still optimal" true (r.Model.status = Socp.Optimal)

let prop_warm_start_preserves_oracle =
  QCheck2.Test.make
    ~name:"warm-started sparse solves still match the dense oracle"
    ~count:30
    QCheck2.Gen.(pair (int_range 2 5) (int_range 0 1_000_000))
    (fun (n, seed) ->
      let rng = Workloads.Rng.create (Int64.of_int seed) in
      let cfg = Workloads.Gen.random_chain rng ~n () in
      let anchor = Budgetbuf.Durability.warm_anchor cfg in
      let params = Budgetbuf.Durability.params ?warm:anchor None in
      match
        (Mapping.solve ~params:dense_reference cfg, Mapping.solve ?params cfg)
      with
      | Ok d, Ok s ->
        rel_close d.Mapping.objective s.Mapping.objective
        && Certify.certified s.Mapping.certificate
      | Error de, Error se ->
        String.equal (Mapping.short_reason de) (Mapping.short_reason se)
      | Ok _, Error _ | Error _, Ok _ -> false)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "sparse"
    [
      ( "construction",
        [
          Alcotest.test_case "mirrors and sums" `Quick
            test_create_mirrors_and_sums;
          Alcotest.test_case "out of range" `Quick test_create_out_of_range;
          Alcotest.test_case "structural zeros kept" `Quick
            test_structural_zeros_kept;
          Alcotest.test_case "add outside pattern" `Quick
            test_add_outside_pattern;
          Alcotest.test_case "clear keeps pattern" `Quick
            test_clear_keeps_pattern;
          Alcotest.test_case "mul_vec" `Quick test_mul_vec;
        ] );
      ( "factorisation",
        [
          Alcotest.test_case "rank-deficient refused then shifted" `Quick
            test_rank_deficient_refused_then_shifted;
          Alcotest.test_case "indefinite raises" `Quick test_indefinite_raises;
          Alcotest.test_case "zero matrix regularised" `Quick
            test_zero_matrix_regularised;
          Alcotest.test_case "empty column recovered by shift" `Quick
            test_empty_column_recovered_by_shift;
          Alcotest.test_case "explicit identity order" `Quick
            test_identity_permutation_order;
          Alcotest.test_case "bad order rejected" `Quick
            test_bad_order_rejected;
        ]
        @ List.map QCheck_alcotest.to_alcotest
            [
              prop_sparse_solve_matches_dense;
              prop_min_degree_is_permutation;
              prop_min_degree_matches_reference;
              prop_refactor_reuses_pattern;
            ] );
      ( "sparse rows",
        [
          Alcotest.test_case "of_rows canonicalises" `Quick
            test_of_rows_canonicalises;
          Alcotest.test_case "of_rows out of range" `Quick
            test_of_rows_out_of_range;
          Alcotest.test_case "fill_gram matches dense gram" `Quick
            test_fill_gram_matches_dense_gram;
          Alcotest.test_case "gram_pattern soc union" `Quick
            test_gram_pattern_soc_union;
        ]
        @ List.map QCheck_alcotest.to_alcotest
            [ prop_workspace_matches_reference ] );
      ( "differential oracle",
        [
          Alcotest.test_case "paper instances" `Quick
            test_oracle_on_paper_instances;
          Alcotest.test_case "infeasible agrees" `Quick
            test_sparse_infeasible_agrees;
        ]
        @ List.map QCheck_alcotest.to_alcotest [ prop_differential_oracle ] );
      ( "dense rows",
        [
          Alcotest.test_case "variable only in a dense row" `Quick
            test_dense_row_only_variable;
          Alcotest.test_case "chain 300 factor" `Quick
            test_chain300_factor_without_memory_row;
        ]
        @ List.map QCheck_alcotest.to_alcotest [ prop_dense_rows_match_oracle ]
      );
      ( "sparse kkt bits",
        List.map
          (fun ((name, _, _, _) as case) ->
            Alcotest.test_case name `Quick (test_sparse_bit_pin case))
          sparse_pin_cases );
      ( "allocation",
        [
          Alcotest.test_case "factor and solve into storage" `Quick
            test_factor_solve_allocation;
          Alcotest.test_case "cold chain 8 solve" `Quick
            test_cold_solve_allocation;
        ] );
      ( "warm starts",
        [
          Alcotest.test_case "reaches same optimum" `Quick
            test_warm_start_reaches_same_optimum;
          Alcotest.test_case "dimension mismatch is cold" `Quick
            test_warm_start_dimension_mismatch_is_cold;
          Alcotest.test_case "non-finite is cold" `Quick
            test_warm_start_non_finite_is_cold;
        ]
        @ List.map QCheck_alcotest.to_alcotest
            [ prop_warm_start_preserves_oracle ] );
    ]
