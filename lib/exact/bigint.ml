(* Sign-magnitude representation.  [mag] is little-endian, base 2^30,
   with no high zero limbs; [sign] is 0 exactly when [mag] is empty.
   Base 2^30 keeps every intermediate product below 2^61, well inside
   OCaml's 63-bit native int. *)

let base_bits = 30
let base = 1 lsl base_bits
let mask = base - 1

type t = { sign : int; mag : int array }

let zero = { sign = 0; mag = [||] }

(* Strip high zero limbs. *)
let norm_mag m =
  let l = ref (Array.length m) in
  while !l > 0 && m.(!l - 1) = 0 do
    decr l
  done;
  if !l = Array.length m then m else Array.sub m 0 !l

let make sign m =
  let m = norm_mag m in
  if Array.length m = 0 then zero else { sign; mag = m }

let is_zero t = t.sign = 0
let sign t = t.sign

let mag_of_uint64 v =
  let rec limbs v acc =
    if Int64.equal v 0L then List.rev acc
    else
      limbs
        (Int64.shift_right_logical v base_bits)
        (Int64.to_int (Int64.logand v 0x3FFFFFFFL) :: acc)
  in
  Array.of_list (limbs v [])

let of_int64 v =
  if Int64.equal v 0L then zero
  else if Int64.compare v 0L > 0 then { sign = 1; mag = mag_of_uint64 v }
  else
    (* [Int64.neg min_int] re-overflows to [min_int], but its bits read
       as an unsigned 2^63 are exactly the magnitude we want. *)
    { sign = -1; mag = mag_of_uint64 (Int64.neg v) }

let of_int n = of_int64 (Int64.of_int n)
let one = of_int 1

let bit_length_mag m =
  let l = Array.length m in
  if l = 0 then 0
  else
    let top = m.(l - 1) in
    let bits = ref 0 in
    let v = ref top in
    while !v <> 0 do
      incr bits;
      v := !v lsr 1
    done;
    ((l - 1) * base_bits) + !bits

let to_int t =
  if bit_length_mag t.mag > 62 then None
  else
    let v = ref 0 in
    for i = Array.length t.mag - 1 downto 0 do
      v := (!v lsl base_bits) lor t.mag.(i)
    done;
    Some (t.sign * !v)

let bit_length t = bit_length_mag t.mag

let to_float t =
  let v = ref 0.0 in
  for i = Array.length t.mag - 1 downto 0 do
    v := (!v *. float_of_int base) +. float_of_int t.mag.(i)
  done;
  float_of_int t.sign *. !v

let compare_mag a b =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Int.compare la lb
  else
    let rec go i =
      if i < 0 then 0
      else if a.(i) <> b.(i) then Int.compare a.(i) b.(i)
      else go (i - 1)
    in
    go (la - 1)

let equal a b = a.sign = b.sign && compare_mag a.mag b.mag = 0

let compare a b =
  if a.sign <> b.sign then Int.compare a.sign b.sign
  else if a.sign >= 0 then compare_mag a.mag b.mag
  else compare_mag b.mag a.mag

let add_mag a b =
  let a, b = if Array.length a >= Array.length b then (a, b) else (b, a) in
  let la = Array.length a and lb = Array.length b in
  let r = Array.make la 0 in
  let carry = ref 0 in
  for i = 0 to la - 1 do
    let s = a.(i) + (if i < lb then b.(i) else 0) + !carry in
    r.(i) <- s land mask;
    carry := s lsr base_bits
  done;
  (* Without a carry out the top limb is at least [a]'s, so nonzero. *)
  if !carry = 0 then r else Array.append r [| !carry |]

(* Requires [a >= b]. *)
let sub_mag a b =
  let la = Array.length a and lb = Array.length b in
  let r = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let bi = if i < lb then b.(i) else 0 in
    let d = a.(i) - bi - !borrow in
    if d < 0 then begin
      r.(i) <- d + base;
      borrow := 1
    end
    else begin
      r.(i) <- d;
      borrow := 0
    end
  done;
  norm_mag r

let mul_mag a b =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then [||]
  else begin
    let r = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let ai = a.(i) in
      if ai <> 0 then begin
        let carry = ref 0 in
        for j = 0 to lb - 1 do
          let t = (ai * b.(j)) + r.(i + j) + !carry in
          r.(i + j) <- t land mask;
          carry := t lsr base_bits
        done;
        let k = ref (i + lb) in
        while !carry <> 0 do
          let t = r.(!k) + !carry in
          r.(!k) <- t land mask;
          carry := t lsr base_bits;
          incr k
        done
      end
    done;
    norm_mag r
  end

let neg t = if t.sign = 0 then t else { t with sign = -t.sign }
let abs t = if t.sign < 0 then neg t else t

let add a b =
  if a.sign = 0 then b
  else if b.sign = 0 then a
  else if a.sign = b.sign then { sign = a.sign; mag = add_mag a.mag b.mag }
  else
    let c = compare_mag a.mag b.mag in
    if c = 0 then zero
    else if c > 0 then make a.sign (sub_mag a.mag b.mag)
    else make b.sign (sub_mag b.mag a.mag)

let sub a b = add a (neg b)

let mul a b =
  if a.sign = 0 || b.sign = 0 then zero
  else { sign = a.sign * b.sign; mag = mul_mag a.mag b.mag }

let shift_left_mag m k =
  if Array.length m = 0 then m
  else begin
    let limbs = k / base_bits and bits = k mod base_bits in
    let lm = Array.length m in
    let r = Array.make (lm + limbs + 1) 0 in
    for i = 0 to lm - 1 do
      let v = m.(i) lsl bits in
      r.(i + limbs) <- r.(i + limbs) lor (v land mask);
      r.(i + limbs + 1) <- r.(i + limbs + 1) lor (v lsr base_bits)
    done;
    norm_mag r
  end

let shift_left t k =
  if k < 0 then invalid_arg "Bigint.shift_left: negative shift"
  else if t.sign = 0 || k = 0 then t
  else { t with mag = shift_left_mag t.mag k }

let shift_right_mag m k =
  let limbs = k / base_bits and bits = k mod base_bits in
  let lm = Array.length m in
  if limbs >= lm then [||]
  else begin
    let l = lm - limbs in
    let r = Array.make l 0 in
    for i = 0 to l - 1 do
      let hi =
        if i + 1 < l then (m.(i + limbs + 1) lsl (base_bits - bits)) land mask
        else 0
      in
      r.(i) <- (m.(i + limbs) lsr bits) lor hi
    done;
    norm_mag r
  end

(* Magnitudes of at most two limbs (60 bits) as native ints, and back. *)
let small_mag m = Array.length m <= 2

let int_of_small m =
  match Array.length m with
  | 0 -> 0
  | 1 -> m.(0)
  | _ -> (m.(1) lsl base_bits) lor m.(0)

let mag_of_small v =
  if v = 0 then [||]
  else if v < base then [| v |]
  else [| v land mask; v lsr base_bits |]

(* Short division by a single limb (< 2^30). *)
let divmod_small m d =
  let l = Array.length m in
  let q = Array.make l 0 in
  let r = ref 0 in
  for i = l - 1 downto 0 do
    let cur = (!r lsl base_bits) lor m.(i) in
    q.(i) <- cur / d;
    r := cur mod d
  done;
  (norm_mag q, !r)

(* Knuth's algorithm D (TAOCP vol. 2, 4.3.1) on base-2^30 limbs, for a
   divisor of at least two limbs and [a >= b].  Every product and
   two-limb numerator stays below 2^61. *)
let divmod_knuth a b =
  let n = Array.length b in
  (* Normalise so the divisor's top limb has its high bit set; the
     quotient digit estimate is then at most 2 too large. *)
  let s = base_bits - bit_length_mag [| b.(n - 1) |] in
  let v = shift_left_mag b s in
  let u = Array.make (Array.length a + 1) 0 in
  let ua = shift_left_mag a s in
  Array.blit ua 0 u 0 (Array.length ua);
  let m = Array.length a - n in
  let q = Array.make (m + 1) 0 in
  let vtop = v.(n - 1) and vnext = v.(n - 2) in
  for j = m downto 0 do
    let num = (u.(j + n) lsl base_bits) lor u.(j + n - 1) in
    let qhat = ref (num / vtop) and rhat = ref (num mod vtop) in
    while
      !rhat < base
      && (!qhat >= base
         || !qhat * vnext > (!rhat lsl base_bits) lor u.(j + n - 2))
    do
      decr qhat;
      rhat := !rhat + vtop
    done;
    (* u[j..j+n] -= qhat * v *)
    let carry = ref 0 and borrow = ref 0 in
    for i = 0 to n - 1 do
      let p = (!qhat * v.(i)) + !carry in
      carry := p lsr base_bits;
      let t = u.(i + j) - (p land mask) - !borrow in
      if t < 0 then begin
        u.(i + j) <- t + base;
        borrow := 1
      end
      else begin
        u.(i + j) <- t;
        borrow := 0
      end
    done;
    let top = u.(j + n) - !carry - !borrow in
    if top >= 0 then u.(j + n) <- top
    else begin
      (* qhat was one too large: add v back once. *)
      decr qhat;
      let c = ref 0 in
      for i = 0 to n - 1 do
        let t = u.(i + j) + v.(i) + !c in
        u.(i + j) <- t land mask;
        c := t lsr base_bits
      done;
      u.(j + n) <- top + !c
    end;
    q.(j) <- !qhat
  done;
  (norm_mag q, shift_right_mag (Array.sub u 0 n) s)

let divmod_mag a b =
  if compare_mag a b < 0 then ([||], a)
  else if small_mag a then
    let x = int_of_small a and y = int_of_small b in
    (mag_of_small (x / y), mag_of_small (x mod y))
  else if Array.length b = 1 then
    let q, r = divmod_small a b.(0) in
    (q, mag_of_small r)
  else divmod_knuth a b

let divmod a b =
  if b.sign = 0 then raise Division_by_zero
  else if a.sign = 0 then (zero, zero)
  else
    let qm, rm = divmod_mag a.mag b.mag in
    (make (a.sign * b.sign) qm, make a.sign rm)

let div a b = fst (divmod a b)
let rem a b = snd (divmod a b)

let rec gcd_int a b = if b = 0 then a else gcd_int b (a mod b)

(* Euclid on limbs until both operands fit 60 bits, then native. *)
let rec gcd_mag a b =
  if Array.length b = 0 then a
  else if small_mag a && small_mag b then
    mag_of_small (gcd_int (int_of_small a) (int_of_small b))
  else gcd_mag b (snd (divmod_mag a b))

let gcd a b = make 1 (gcd_mag a.mag b.mag)

let lcm a b =
  if a.sign = 0 || b.sign = 0 then zero
  else
    let g = gcd a b in
    abs (mul (div a g) b)

let chunk = 1_000_000_000

let to_string t =
  if t.sign = 0 then "0"
  else begin
    let groups = ref [] in
    let m = ref t.mag in
    while Array.length !m > 0 do
      let q, r = divmod_small !m chunk in
      groups := r :: !groups;
      m := q
    done;
    let buf = Buffer.create 32 in
    if t.sign < 0 then Buffer.add_char buf '-';
    (match !groups with
    | [] -> assert false
    | g :: rest ->
        Buffer.add_string buf (string_of_int g);
        List.iter (fun g -> Buffer.add_string buf (Printf.sprintf "%09d" g)) rest);
    Buffer.contents buf
  end

let of_string s =
  let s = String.trim s in
  if s = "" then invalid_arg "Bigint.of_string: empty string";
  let neg_sign, start =
    match s.[0] with '-' -> (true, 1) | '+' -> (false, 1) | _ -> (false, 0)
  in
  if start >= String.length s then invalid_arg "Bigint.of_string: no digits";
  let acc = ref zero in
  let base9 = of_int chunk in
  let i = ref start in
  let len = String.length s in
  let first = (len - start) mod 9 in
  let take n =
    let part = String.sub s !i n in
    String.iter
      (fun c ->
        if c < '0' || c > '9' then invalid_arg "Bigint.of_string: bad digit")
      part;
    i := !i + n;
    int_of_string part
  in
  if first > 0 then acc := of_int (take first);
  while !i < len do
    acc := add (mul !acc base9) (of_int (take 9))
  done;
  if neg_sign then neg !acc else !acc

let pp fmt t = Format.pp_print_string fmt (to_string t)
