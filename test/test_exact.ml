(* Exact arithmetic and certification tests.

   Unit vectors for Bigint (limb and overflow boundaries, decimal
   round-trips), Rat (normalization, lossless of_float), the exact
   Bellman-Ford, and the certification properties: solver-accepted
   mappings are Certified, granule-down mutations are Refuted. *)

module B = Exact.Bigint
module R = Exact.Rat

let check = Alcotest.check
let bstr = Alcotest.testable B.pp B.equal
let rstr = Alcotest.testable R.pp R.equal

(* ------------------------------------------------------------------ *)
(* Bigint units                                                       *)
(* ------------------------------------------------------------------ *)

let test_bigint_small_ops () =
  check bstr "add" (B.of_int 7) (B.add (B.of_int 3) (B.of_int 4));
  check bstr "sub to negative" (B.of_int (-1)) (B.sub (B.of_int 3) (B.of_int 4));
  check bstr "mul" (B.of_int (-12)) (B.mul (B.of_int 3) (B.of_int (-4)));
  check bstr "neg zero" B.zero (B.neg B.zero);
  check Alcotest.int "sign neg" (-1) (B.sign (B.of_int (-5)));
  check Alcotest.(option int) "to_int" (Some (-42)) (B.to_int (B.of_int (-42)))

let test_bigint_limb_boundaries () =
  (* Around the 2^30 limb base and the 2^62 native-int edge. *)
  List.iter
    (fun n ->
      let s = B.to_string (B.of_int n) in
      check Alcotest.string "decimal round-trip" (string_of_int n) s;
      check bstr "of_string round-trip" (B.of_int n) (B.of_string s))
    [
      0; 1; -1; (1 lsl 30) - 1; 1 lsl 30; (1 lsl 30) + 1; -(1 lsl 30);
      (1 lsl 60) - 1; 1 lsl 60; max_int; min_int + 1;
    ];
  check Alcotest.(option int) "max_int to_int" (Some max_int)
    (B.to_int (B.of_int max_int));
  (* 2^62 no longer fits a native int. *)
  check Alcotest.(option int) "2^62 overflows to_int" None
    (B.to_int (B.shift_left B.one 62))

let test_bigint_int64_min () =
  let v = B.of_int64 Int64.min_int in
  check Alcotest.string "|int64 min|" "-9223372036854775808" (B.to_string v)

let test_bigint_mul_carry_chain () =
  (* (2^90 - 1)^2 = 2^180 - 2^91 + 1 exercises multi-limb carries. *)
  let p = B.sub (B.shift_left B.one 90) B.one in
  let sq = B.mul p p in
  let expect =
    B.add (B.sub (B.shift_left B.one 180) (B.shift_left B.one 91)) B.one
  in
  check bstr "(2^90-1)^2" expect sq

let test_bigint_divmod () =
  let a = B.of_string "123456789012345678901234567890" in
  let b = B.of_string "987654321987" in
  let q, r = B.divmod a b in
  check bstr "a = q*b + r" a (B.add (B.mul q b) r);
  check Alcotest.bool "0 <= r < b" true
    (B.sign r >= 0 && B.compare r b < 0);
  (* Truncation towards zero matches native semantics. *)
  let q', r' = B.divmod (B.of_int (-7)) (B.of_int 2) in
  check bstr "(-7)/2" (B.of_int (-3)) q';
  check bstr "(-7) mod 2" (B.of_int (-1)) r';
  check Alcotest.bool "div by zero" true
    (match B.divmod a B.zero with
    | exception Division_by_zero -> true
    | _ -> false)

let test_bigint_gcd_lcm () =
  check bstr "gcd" (B.of_int 6) (B.gcd (B.of_int 54) (B.of_int (-24)));
  check bstr "gcd with zero" (B.of_int 7) (B.gcd B.zero (B.of_int 7));
  check bstr "lcm" (B.of_int 36) (B.lcm (B.of_int 12) (B.of_int 18));
  let a = B.shift_left (B.of_int 3) 40 and b = B.shift_left (B.of_int 5) 35 in
  check bstr "gcd of shifted" (B.shift_left B.one 35) (B.gcd a b)

let test_bigint_string_big () =
  let s = "170141183460469231731687303715884105727" (* 2^127 - 1 *) in
  let v = B.of_string s in
  check Alcotest.string "round-trip" s (B.to_string v);
  check bstr "2^127 - 1" (B.sub (B.shift_left B.one 127) B.one) v

(* ------------------------------------------------------------------ *)
(* Bigint against a bit-serial reference                               *)
(* ------------------------------------------------------------------ *)

(* Bit-by-bit long division and binary gcd: slow, obviously correct,
   and independent of Bigint's limb-wise kernel (Knuth D, Euclid), so
   the reference for the properties below.  Magnitudes are
   little-endian base-2^30 limb arrays without high zero limbs. *)
module Ref = struct
  let bits = 30
  let mask = (1 lsl bits) - 1

  let norm m =
    let l = ref (Array.length m) in
    while !l > 0 && m.(!l - 1) = 0 do
      decr l
    done;
    Array.sub m 0 !l

  let compare a b =
    let la = Array.length a and lb = Array.length b in
    if la <> lb then Int.compare la lb
    else
      let rec go i =
        if i < 0 then 0
        else if a.(i) <> b.(i) then Int.compare a.(i) b.(i)
        else go (i - 1)
      in
      go (la - 1)

  (* Requires [a >= b]. *)
  let sub a b =
    let r = Array.make (Array.length a) 0 and borrow = ref 0 in
    Array.iteri
      (fun i ai ->
        let d = ai - (if i < Array.length b then b.(i) else 0) - !borrow in
        borrow := if d < 0 then 1 else 0;
        r.(i) <- d land mask)
      a;
    norm r

  let shift_left m k =
    let r = Array.make (Array.length m + (k / bits) + 1) 0 in
    Array.iteri
      (fun i v ->
        let v = v lsl (k mod bits) and j = i + (k / bits) in
        r.(j) <- r.(j) lor (v land mask);
        r.(j + 1) <- r.(j + 1) lor (v lsr bits))
      m;
    norm r

  let shift_right_one m =
    norm
      (Array.mapi
         (fun i v ->
           let hi = if i + 1 < Array.length m then m.(i + 1) land 1 else 0 in
           (v lsr 1) lor (hi lsl (bits - 1)))
         m)

  let bit m i = (m.(i / bits) lsr (i mod bits)) land 1

  let bit_length m =
    match Array.length m with
    | 0 -> 0
    | l ->
      let rec top v n = if v = 0 then n else top (v lsr 1) (n + 1) in
      ((l - 1) * bits) + top m.(l - 1) 0

  let divmod a b =
    let q = Array.make (Array.length a) 0 and r = ref [||] in
    for i = bit_length a - 1 downto 0 do
      let r2 = shift_left !r 1 in
      let r2 =
        if bit a i = 0 then r2
        else if r2 = [||] then [| 1 |]
        else begin
          r2.(0) <- r2.(0) lor 1;
          r2
        end
      in
      if compare r2 b >= 0 then begin
        r := sub r2 b;
        q.(i / bits) <- q.(i / bits) lor (1 lsl (i mod bits))
      end
      else r := r2
    done;
    (norm q, !r)

  let rec strip m =
    if m <> [||] && m.(0) land 1 = 0 then strip (shift_right_one m) else m

  let gcd a b =
    let rec twos a b k =
      if a = [||] || b = [||] || a.(0) land 1 = 1 || b.(0) land 1 = 1 then k
      else twos (shift_right_one a) (shift_right_one b) (k + 1)
    in
    if a = [||] then b
    else if b = [||] then a
    else
      let k = twos a b 0 in
      let rec loop u v =
        match compare u v with
        | 0 -> u
        | c when c > 0 -> loop v (strip (sub u v))
        | _ -> loop u (strip (sub v u))
      in
      shift_left (loop (strip a) (strip b)) k

  (* Decimal digits into limbs, to read a Bigint result back. *)
  let of_decimal s =
    String.fold_left
      (fun m c ->
        let carry = ref (Char.code c - Char.code '0') in
        let r =
          Array.map
            (fun v ->
              let t = (v * 10) + !carry in
              carry := t lsr bits;
              t land mask)
            m
        in
        norm (if !carry = 0 then r else Array.append r [| !carry |]))
      [||] s
end

(* A signed operand: sign (-1, 0, 1) and its reference magnitude. *)
let to_big (sign, m) =
  let v =
    Array.fold_right
      (fun limb acc -> B.add (B.shift_left acc 30) (B.of_int limb))
      m B.zero
  in
  if sign < 0 then B.neg v else v

let of_big x =
  let s = B.to_string (B.abs x) in
  (B.sign x, Ref.of_decimal s)

(* Limb counts 0-8 with extreme limbs, ±(2^(30k) ± 1), the 2^60 and
   2^62 native-int boundaries, zero and negatives. *)
let operand_gen =
  let open QCheck.Gen in
  let limb =
    frequency
      [ (1, return 0); (1, return Ref.mask); (1, return 1);
        (5, int_bound Ref.mask) ]
  in
  let random =
    int_range 0 8 >>= fun n -> map Ref.norm (array_size (return n) limb)
  in
  let power =
    (* 2^(30k) - 1, 2^(30k), 2^(30k) + 1 *)
    map2
      (fun k d ->
        match d with
        | 0 -> Array.make k Ref.mask
        | 1 -> Array.init (k + 1) (fun i -> if i = k then 1 else 0)
        | _ -> Array.init (k + 1) (fun i -> if i = k || i = 0 then 1 else 0))
      (int_range 1 7) (int_bound 2)
  in
  let native =
    oneofl
      [ [| Ref.mask; Ref.mask |]; [| 0; 0; 1 |]; [| 1; 0; 1 |];
        [| Ref.mask; Ref.mask; 3 |]; [| 0; 0; 4 |]; [| 1; 0; 4 |] ]
  in
  map2
    (fun m neg -> ((if m = [||] then 0 else if neg then -1 else 1), m))
    (frequency [ (5, random); (2, power); (1, native); (1, return [||]) ])
    bool

let operand_pair =
  QCheck.make
    ~print:(fun (a, b) -> B.to_string (to_big a) ^ ", " ^ B.to_string (to_big b))
    QCheck.Gen.(pair operand_gen operand_gen)

let signed sign m = if m = [||] then (0, m) else (sign, m)

let test_bigint_divmod_reference_qcheck () =
  QCheck.Test.make ~count:3000 ~name:"divmod matches the bit-serial reference"
    operand_pair
    (fun ((sa, ma) as a, ((sb, mb) as b)) ->
      QCheck.assume (sb <> 0);
      let q, r = B.divmod (to_big a) (to_big b) in
      let rq, rr = Ref.divmod ma mb in
      B.equal q (to_big (signed (sa * sb) rq))
      && B.equal r (to_big (signed sa rr))
      && B.equal (to_big a) (B.add (B.mul q (to_big b)) r)
      && B.compare (B.abs r) (B.abs (to_big b)) < 0
      && (B.is_zero r || B.sign r = sa))

let test_bigint_gcd_reference_qcheck () =
  QCheck.Test.make ~count:3000 ~name:"gcd and lcm match the reference"
    operand_pair
    (fun ((_, ma) as a, ((_, mb) as b)) ->
      let g = B.gcd (to_big a) (to_big b) in
      let lcm_ref =
        if ma = [||] || mb = [||] then B.zero
        else
          B.mul
            (to_big (1, fst (Ref.divmod ma (Ref.gcd ma mb))))
            (to_big (1, mb))
      in
      B.equal g (to_big (signed 1 (Ref.gcd ma mb)))
      && B.equal (B.lcm (to_big a) (to_big b)) lcm_ref)

let test_bigint_ring_reference_qcheck () =
  QCheck.Test.make ~count:3000
    ~name:"ring ops agree with the reference"
    QCheck.(pair operand_pair (int_bound 100))
    (fun (((sa, ma) as a, ((sb, mb) as b)), k) ->
      let x = to_big a and y = to_big b in
      let mag v = snd (of_big v) in
      let sp, mp = of_big (B.mul x y) in
      let ref_compare =
        if sa <> sb then Int.compare sa sb
        else if sa >= 0 then Ref.compare ma mb
        else Ref.compare mb ma
      in
      sp = sa * sb
      && (mb = [||] || Ref.divmod mp mb = (ma, [||]))
      && Ref.sub (mag (B.add (B.abs x) (B.abs y))) mb = ma
      && mag (B.sub (B.abs x) (B.abs y))
         = (if Ref.compare ma mb >= 0 then Ref.sub ma mb else Ref.sub mb ma)
      && B.equal (B.sub (B.add x y) y) x
      && B.equal (B.sub x y) (B.neg (B.sub y x))
      && B.compare x y = ref_compare
      && B.compare x y = B.sign (B.sub x y)
      && of_big (B.shift_left x k) = signed sa (Ref.shift_left ma k))

(* u = q·v − 1 over a divisor of three or more limbs: the two-limb
   estimate of the leading quotient digit is one too large, so Knuth D
   multiplies and subtracts past zero and adds the divisor back.  The
   operands were found by searching that family with an instrumented
   kernel. *)
let test_bigint_knuth_add_back () =
  List.iter
    (fun (u, v, q) ->
      let u = B.of_string u and v = B.of_string v and q = B.of_string q in
      List.iter
        (fun (su, sv) ->
          let u = if su then B.neg u else u and v = if sv then B.neg v else v in
          let quot, r = B.divmod u v in
          check bstr "quotient" (if su = sv then q else B.neg q) quot;
          let rem = B.sub (B.abs v) B.one in
          check bstr "remainder" (if su then B.neg rem else rem) r;
          check Alcotest.bool "reference" true
            (Ref.divmod (snd (of_big u)) (snd (of_big v))
            = (snd (of_big quot), snd (of_big r))))
        [ (false, false); (true, false); (false, true); (true, true) ])
    [
      ( "135133628694650728496668458981608905397265653",
        "221749647125346191652701735261163619", "609397265" );
      ( "174451052064817347940164794780621567721363279692331552290230661",
        "817937755802788057751690584882380490475816331", "213281574089458001" );
      ( "397426804953422370523096920541030387373037605",
        "1235842610577509515745821437", "321583672185979037" );
    ]

(* ------------------------------------------------------------------ *)
(* Rat units                                                          *)
(* ------------------------------------------------------------------ *)

let test_rat_normalization () =
  check rstr "6/4 = 3/2" (R.of_ints 3 2) (R.of_ints 6 4);
  check rstr "sign in num" (R.of_ints (-3) 2) (R.of_ints 3 (-2));
  check rstr "zero" R.zero (R.of_ints 0 17);
  check rstr "add" (R.of_ints 5 6) (R.add (R.of_ints 1 2) (R.of_ints 1 3));
  check rstr "mul" (R.of_ints 1 3) (R.mul (R.of_ints 2 3) (R.of_ints 1 2));
  check rstr "div" (R.of_ints 4 3) (R.div (R.of_ints 2 3) (R.of_ints 1 2));
  check Alcotest.int "compare" (-1) (R.compare (R.of_ints 1 3) (R.of_ints 1 2));
  check Alcotest.string "pp" "-3/2" (R.to_string (R.of_ints 3 (-2)))

let test_rat_of_float_exact () =
  (* Exactly representable values decode to their dyadic rationals. *)
  check rstr "0.5" (R.of_ints 1 2) (R.of_float 0.5);
  check rstr "-0.75" (R.of_ints (-3) 4) (R.of_float (-0.75));
  check rstr "3.0" (R.of_int 3) (R.of_float 3.0);
  check rstr "2^60" (R.of_bigint (B.shift_left B.one 60)) (R.of_float 1.152921504606846976e18);
  (* 0.1 is NOT one tenth: the decomposition recovers the actual
     double, 3602879701896397 / 2^55. *)
  let tenth = R.of_float 0.1 in
  check Alcotest.bool "fl(0.1) <> 1/10" false (R.equal tenth (R.of_ints 1 10));
  check rstr "fl(0.1) bits"
    (R.make (B.of_string "3602879701896397") (B.shift_left B.one 55))
    tenth;
  check Alcotest.bool "nan rejected" true
    (match R.of_float Float.nan with
    | exception Invalid_argument _ -> true
    | _ -> false);
  check Alcotest.bool "inf rejected" true
    (match R.of_float Float.infinity with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_rat_of_float_roundtrip_qcheck () =
  QCheck.Test.make ~count:500 ~name:"of_float/to_float round-trip"
    QCheck.(float_range (-1e15) 1e15)
    (fun f -> R.to_float (R.of_float f) = f)

let test_rat_denormal () =
  (* Smallest positive subnormal double: 2^-1074, exactly. *)
  let tiny = Float.ldexp 1.0 (-1074) in
  check rstr "2^-1074"
    (R.make B.one (B.shift_left B.one 1074))
    (R.of_float tiny);
  check (Alcotest.float 0.0) "back" tiny (R.to_float (R.of_float tiny))

(* ------------------------------------------------------------------ *)
(* Exact Bellman-Ford                                                 *)
(* ------------------------------------------------------------------ *)

let test_bf_feasible () =
  (* Two nodes, a forward edge of weight 3/2 and a back edge of -2:
     cycle weight -1/2 < 0, so potentials settle. *)
  let edges = [| (0, 1, R.of_ints 3 2); (1, 0, R.of_int (-2)) |] in
  match Exact.Bf.longest_path ~nodes:2 edges with
  | Exact.Bf.Feasible d ->
      check rstr "d0" R.zero d.(0);
      check rstr "d1" (R.of_ints 3 2) d.(1)
  | Exact.Bf.Positive_cycle _ -> Alcotest.fail "expected feasible"

let test_bf_zero_cycle_feasible () =
  (* Exactly-zero cycles must be accepted: that is the boundary a float
     checker cannot decide. *)
  let edges = [| (0, 1, R.of_ints 1 3); (1, 0, R.of_ints (-1) 3) |] in
  match Exact.Bf.longest_path ~nodes:2 edges with
  | Exact.Bf.Feasible _ -> ()
  | Exact.Bf.Positive_cycle _ -> Alcotest.fail "zero cycle refuted"

let test_bf_positive_cycle () =
  (* Cycle 1 -> 2 -> 1 of weight +1/6; node 0 feeds it. *)
  let edges =
    [|
      (0, 1, R.of_int 1);
      (1, 2, R.of_ints 1 2);
      (2, 1, R.of_ints (-1) 3);
    |]
  in
  match Exact.Bf.longest_path ~nodes:3 edges with
  | Exact.Bf.Feasible _ -> Alcotest.fail "positive cycle missed"
  | Exact.Bf.Positive_cycle cycle ->
      let sorted = List.sort Int.compare cycle in
      check Alcotest.(list int) "witness edges" [ 1; 2 ] sorted;
      let weight =
        List.fold_left
          (fun acc e ->
            let _, _, w = edges.(e) in
            R.add acc w)
          R.zero cycle
      in
      check rstr "excess" (R.of_ints 1 6) weight

let test_bf_self_loop () =
  let edges = [| (0, 0, R.of_ints 1 1000000) |] in
  match Exact.Bf.longest_path ~nodes:1 edges with
  | Exact.Bf.Feasible _ -> Alcotest.fail "positive self-loop missed"
  | Exact.Bf.Positive_cycle cycle ->
      check Alcotest.(list int) "self-loop witness" [ 0 ] cycle

let test_bf_tiny_margin () =
  (* A cycle whose weight is one part in 2^80: far below any float
     epsilon, still decided exactly. *)
  let eps = R.make B.one (B.shift_left B.one 80) in
  let up = R.add (R.of_int 1) eps in
  let edges = [| (0, 1, up); (1, 0, R.of_int (-1)) |] in
  (match Exact.Bf.longest_path ~nodes:2 edges with
  | Exact.Bf.Positive_cycle _ -> ()
  | Exact.Bf.Feasible _ -> Alcotest.fail "2^-80 excess missed");
  let down = R.sub (R.of_int 1) eps in
  let edges = [| (0, 1, down); (1, 0, R.of_int (-1)) |] in
  match Exact.Bf.longest_path ~nodes:2 edges with
  | Exact.Bf.Feasible _ -> ()
  | Exact.Bf.Positive_cycle _ -> Alcotest.fail "-2^-80 slack refuted"

(* Rat-only Bellman–Ford: the relaxation of [Exact.Bf] with neither
   the common-denominator scaling nor the native-int path.  [None] when
   round [nodes + 1] still relaxes. *)
let reference_bf ~nodes edges =
  let d = Array.make nodes R.zero in
  let relax () =
    Array.fold_left
      (fun any (s, t, w) ->
        let nd = R.add d.(s) w in
        if R.compare nd d.(t) > 0 then begin
          d.(t) <- nd;
          true
        end
        else any)
      false edges
  in
  let rec go round =
    if not (relax ()) then Some d
    else if round >= nodes then None
    else go (round + 1)
  in
  go 0

let is_positive_cycle edges cycle =
  match cycle with
  | [] -> false
  | first :: _ ->
    let src e = let s, _, _ = edges.(e) in s
    and dst e = let _, t, _ = edges.(e) in t in
    let rec closed = function
      | [ last ] -> dst last = src first
      | e :: (e' :: _ as rest) -> dst e = src e' && closed rest
      | [] -> false
    in
    closed cycle
    && R.sign
         (List.fold_left
            (fun acc e -> let _, _, w = edges.(e) in R.add acc w)
            R.zero cycle)
       > 0

(* Random graphs of 1-8 nodes and up to 16 edges with small rational
   weights, optionally scaled by 2^70: unscaled they run on native ints,
   scaled on Bigint. *)
let edges_gen =
  let open QCheck.Gen in
  int_range 1 8 >>= fun nodes ->
  let edge =
    map3
      (fun s t (n, d) -> (s, t, R.of_ints n d))
      (int_bound (nodes - 1)) (int_bound (nodes - 1))
      (pair (int_range (-20) 8) (int_range 1 6))
  in
  map2 (fun e scaled -> (nodes, e, scaled)) (array_size (int_bound 16) edge) bool

let big_scale = R.of_bigint (B.shift_left B.one 70)

let scale_edges edges =
  Array.map (fun (s, t, w) -> (s, t, R.mul w big_scale)) edges

let edges_arb =
  QCheck.make
    ~print:(fun (nodes, edges, scaled) ->
      Printf.sprintf "nodes=%d scaled=%b %s" nodes scaled
        (String.concat " "
           (Array.to_list
              (Array.map
                 (fun (s, t, w) -> Printf.sprintf "%d->%d:%s" s t (R.to_string w))
                 edges))))
    edges_gen

let test_bf_reference_qcheck () =
  QCheck.Test.make ~count:2000 ~name:"bf matches a Rat-only reference"
    edges_arb
    (fun (nodes, edges, scaled) ->
      let edges = if scaled then scale_edges edges else edges in
      match (Exact.Bf.longest_path ~nodes edges, reference_bf ~nodes edges) with
      | Exact.Bf.Feasible d, Some d' -> Array.for_all2 R.equal d d'
      | Exact.Bf.Positive_cycle c, None -> is_positive_cycle edges c
      | _ -> false)

(* Scaling every weight by 2^70 moves the relaxation from native ints
   to Bigint; every comparison keeps its outcome, so the potentials
   scale and the extracted cycle is the same list of edges. *)
let test_bf_native_bigint_agree_qcheck () =
  QCheck.Test.make ~count:2000 ~name:"bf native and Bigint paths agree"
    edges_arb
    (fun (nodes, edges, _) ->
      match
        ( Exact.Bf.longest_path ~nodes edges,
          Exact.Bf.longest_path ~nodes (scale_edges edges) )
      with
      | Exact.Bf.Feasible d, Exact.Bf.Feasible d' ->
        Array.for_all2 (fun x y -> R.equal (R.mul x big_scale) y) d d'
      | Exact.Bf.Positive_cycle c, Exact.Bf.Positive_cycle c' -> c = c'
      | _ -> false)

(* ------------------------------------------------------------------ *)
(* Certification properties                                            *)
(* ------------------------------------------------------------------ *)

module Config = Taskgraph.Config
module Mapping = Budgetbuf.Mapping
module Certify = Budgetbuf.Certify

(* Property (a): every mapping the solver accepts (Ok verdict) that
   passes the float dataflow test ({!Dataflow_model.verify}) also
   carries an exact certificate.  200 random
   instances spanning single chains and processor-coupled multi-job
   sets; infeasible draws prove nothing and pass vacuously. *)
let random_instance seed =
  let rng = Workloads.Rng.create (Int64.of_int seed) in
  if seed mod 2 = 0 then
    Workloads.Gen.random_chain rng ~n:(2 + (seed mod 4)) ()
  else
    Workloads.Gen.multi_job rng
      ~jobs:(1 + (seed mod 3))
      ~tasks_per_job:(2 + (seed mod 2))
      ~procs:(1 + (seed mod 3))
      ()

let test_certify_accepts_qcheck () =
  QCheck.Test.make ~count:200 ~name:"solver-accepted mappings are Certified"
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
      let cfg = random_instance seed in
      match Mapping.solve cfg with
      | Error _ -> true
      | Ok r ->
        Budgetbuf.Dataflow_model.verify cfg r.Mapping.mapped <> []
        || Certify.certified r.Mapping.certificate)

(* The witness of a Certified mapping is the earliest periodic
   admissible schedule, checked from the configuration alone: every
   SRDF edge u -> v of weight ρ(u) − δ·µ holds exactly (s(v) >= s(u) +
   w), no start is negative, and every positive start is pinned by an
   exactly tight incoming edge. *)
let earliest_pas cfg (mapped : Config.mapped) starts =
  let start = Hashtbl.of_seq (List.to_seq starts) in
  let s v = Hashtbl.find start v in
  List.for_all
    (fun g ->
      let mu = R.of_float (Config.period cfg g) in
      let rho = Hashtbl.create 16 and edges = ref [] in
      let node w k = Config.task_name cfg w ^ k in
      List.iter
        (fun w ->
          let repl =
            R.of_float (Config.replenishment cfg (Config.task_proc cfg w))
          in
          let beta = R.of_float (mapped.Config.budget w) in
          let chi = R.of_float (Config.wcet cfg w) in
          Hashtbl.replace rho (node w ".1") (R.sub repl beta);
          Hashtbl.replace rho (node w ".2") (R.div (R.mul repl chi) beta);
          edges :=
            (node w ".1", node w ".2", 0) :: (node w ".2", node w ".2", 1)
            :: !edges)
        (Config.tasks cfg g);
      List.iter
        (fun b ->
          let iota = Config.initial_tokens cfg b in
          let src = Config.buffer_src cfg b and dst = Config.buffer_dst cfg b in
          edges :=
            (node src ".2", node dst ".1", iota)
            :: (node dst ".2", node src ".1", mapped.Config.capacity b - iota)
            :: !edges)
        (Config.buffers cfg g);
      let reach (u, _, tokens) =
        R.add (s u) (R.sub (Hashtbl.find rho u) (R.mul (R.of_int tokens) mu))
      in
      List.for_all
        (fun ((_, v, _) as e) -> R.compare (s v) (reach e) >= 0)
        !edges
      && Hashtbl.fold
           (fun v _ ok ->
             ok
             && R.sign (s v) >= 0
             && (R.sign (s v) = 0
                || List.exists
                     (fun ((_, v', _) as e) -> v' = v && R.equal (s v) (reach e))
                     !edges))
           rho true)
    (Config.graphs cfg)

let test_certify_witness_qcheck () =
  QCheck.Test.make ~count:200 ~name:"certified witnesses are the earliest PAS"
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
      let cfg = random_instance seed in
      match Mapping.solve cfg with
      | Ok { Mapping.certificate = Certify.Certified w; mapped; _ } ->
        earliest_pas cfg mapped w.Certify.starts
      | Ok _ | Error _ -> true)

(* Property (b), on a pinned corpus so the verdicts are reproducible:
   lowering every budget by one granule, or every capacity by one
   token, must flip the certificate to Refuted.  (On a single budget or
   buffer this is not a theorem — conservative rounding of the *other*
   variables can leave enough slack to absorb one granule — but the
   all-variables mutation undercuts the continuous optimum itself.) *)
let mutation_corpus () =
  [
    ("paper t1", Workloads.Gen.paper_t1 ());
    ( "paper t1 capped",
      let c = Workloads.Gen.paper_t1 () in
      Config.set_max_capacity c (Config.find_buffer c "bab") (Some 3);
      c );
    ("paper t2", Workloads.Gen.paper_t2 ());
    ("chain", Workloads.Gen.chain ~n:4 ());
    ("ring", Workloads.Gen.ring ~n:4 ~initial:2 ());
    ("split join", Workloads.Gen.split_join ~branches:3 ());
  ]

let test_certify_mutations () =
  List.iter
    (fun (name, cfg) ->
      match Mapping.solve cfg with
      | Error e -> Alcotest.failf "%s: solve failed: %a" name Mapping.pp_error e
      | Ok r ->
        let mapped = r.Mapping.mapped in
        Alcotest.(check bool)
          (name ^ ": accepted mapping certified")
          true
          (Certify.certified r.Mapping.certificate);
        let g = Config.granularity cfg in
        let budgets_down =
          { mapped with Config.budget = (fun w -> mapped.Config.budget w -. g) }
        in
        Alcotest.(check bool)
          (name ^ ": budgets one granule down refuted")
          false
          (Certify.certified (Certify.check cfg budgets_down));
        let capacities_down =
          {
            mapped with
            Config.capacity = (fun b -> mapped.Config.capacity b - 1);
          }
        in
        Alcotest.(check bool)
          (name ^ ": capacities one token down refuted")
          false
          (Certify.certified (Certify.check cfg capacities_down)))
    (mutation_corpus ())

let () =
  let qsuite = List.map QCheck_alcotest.to_alcotest [ test_rat_of_float_roundtrip_qcheck () ] in
  let bigint_qsuite =
    List.map QCheck_alcotest.to_alcotest
      [
        test_bigint_divmod_reference_qcheck ();
        test_bigint_gcd_reference_qcheck ();
        test_bigint_ring_reference_qcheck ();
      ]
  in
  let bf_qsuite =
    List.map QCheck_alcotest.to_alcotest
      [ test_bf_reference_qcheck (); test_bf_native_bigint_agree_qcheck () ]
  in
  let cert_qsuite =
    List.map QCheck_alcotest.to_alcotest
      [ test_certify_accepts_qcheck (); test_certify_witness_qcheck () ]
  in
  Alcotest.run "exact"
    [
      ( "bigint",
        [
          Alcotest.test_case "small ops" `Quick test_bigint_small_ops;
          Alcotest.test_case "limb boundaries" `Quick test_bigint_limb_boundaries;
          Alcotest.test_case "int64 min" `Quick test_bigint_int64_min;
          Alcotest.test_case "mul carries" `Quick test_bigint_mul_carry_chain;
          Alcotest.test_case "divmod" `Quick test_bigint_divmod;
          Alcotest.test_case "gcd lcm" `Quick test_bigint_gcd_lcm;
          Alcotest.test_case "big decimal" `Quick test_bigint_string_big;
          Alcotest.test_case "knuth add-back" `Quick test_bigint_knuth_add_back;
        ]
        @ bigint_qsuite );
      ( "rat",
        [
          Alcotest.test_case "normalization" `Quick test_rat_normalization;
          Alcotest.test_case "of_float exact" `Quick test_rat_of_float_exact;
          Alcotest.test_case "denormal" `Quick test_rat_denormal;
        ]
        @ qsuite );
      ( "bf",
        [
          Alcotest.test_case "feasible" `Quick test_bf_feasible;
          Alcotest.test_case "zero cycle" `Quick test_bf_zero_cycle_feasible;
          Alcotest.test_case "positive cycle" `Quick test_bf_positive_cycle;
          Alcotest.test_case "self loop" `Quick test_bf_self_loop;
          Alcotest.test_case "tiny margin" `Quick test_bf_tiny_margin;
        ]
        @ bf_qsuite );
      ( "certify",
        Alcotest.test_case "mutations refuted" `Quick test_certify_mutations
        :: cert_qsuite );
    ]
