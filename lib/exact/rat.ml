type t = { num : Bigint.t; den : Bigint.t }

let zero = { num = Bigint.zero; den = Bigint.one }
let one = { num = Bigint.one; den = Bigint.one }

let make num den =
  if Bigint.is_zero den then raise Division_by_zero
  else if Bigint.is_zero num then zero
  else begin
    let num, den =
      if Bigint.sign den < 0 then (Bigint.neg num, Bigint.neg den)
      else (num, den)
    in
    let g = Bigint.gcd num den in
    if Bigint.equal g Bigint.one then { num; den }
    else { num = Bigint.div num g; den = Bigint.div den g }
  end

let of_bigint n = { num = n; den = Bigint.one }
let of_int n = of_bigint (Bigint.of_int n)
let of_ints n d = make (Bigint.of_int n) (Bigint.of_int d)

let of_float f =
  if f = 0.0 then zero
  else if not (Float.is_finite f) then
    invalid_arg (Printf.sprintf "Rat.of_float: not finite (%h)" f)
  else begin
    (* f = m·2^e with 0.5 <= |m| < 1; scale the mantissa to the 53-bit
       integer it actually is.  The conversion is exact: doubles are
       dyadic rationals. *)
    let m, e = Float.frexp f in
    let mant = Int64.of_float (Float.ldexp m 53) in
    let e = e - 53 in
    if e >= 0 then of_bigint (Bigint.shift_left (Bigint.of_int64 mant) e)
    else begin
      (* The denominator is a power of two: cancel the mantissa's
         trailing zero bits against it and the fraction is reduced. *)
      let mant = ref mant and e = ref e in
      while !e < 0 && Int64.logand !mant 1L = 0L do
        mant := Int64.shift_right !mant 1;
        incr e
      done;
      { num = Bigint.of_int64 !mant; den = Bigint.shift_left Bigint.one (- !e) }
    end
  end

(* Naive num/.den over- or underflows once either side outgrows the
   float range, even when the quotient itself is representable.
   Normalize the quotient to ~64 bits first, then scale back with
   ldexp: exact whenever the true value is a representable dyadic. *)
let to_float t =
  if Bigint.is_zero t.num then 0.0
  else begin
    let a = Bigint.abs t.num and b = t.den in
    let shift = 64 - (Bigint.bit_length a - Bigint.bit_length b) in
    let q =
      if shift >= 0 then Bigint.div (Bigint.shift_left a shift) b
      else Bigint.div a (Bigint.shift_left b (-shift))
    in
    let f = Float.ldexp (Bigint.to_float q) (-shift) in
    if Bigint.sign t.num < 0 then -.f else f
  end

let neg t = { t with num = Bigint.neg t.num }
let abs t = { t with num = Bigint.abs t.num }

let is_one b = Bigint.equal b Bigint.one

(* Sum and product as in Knuth, TAOCP vol. 2, 4.5.1: the gcds run on
   denominators and cross factors instead of on the full products, and
   are mostly 1.  The result is reduced, so it equals [make]'s. *)
let add a b =
  if Bigint.is_zero a.num then b
  else if Bigint.is_zero b.num then a
  else
    let d1 = Bigint.gcd a.den b.den in
    if is_one d1 then
      let num = Bigint.add (Bigint.mul a.num b.den) (Bigint.mul b.num a.den) in
      if Bigint.is_zero num then zero
      else { num; den = Bigint.mul a.den b.den }
    else
      let ad = Bigint.div a.den d1 in
      let t =
        Bigint.add (Bigint.mul a.num (Bigint.div b.den d1)) (Bigint.mul b.num ad)
      in
      if Bigint.is_zero t then zero
      else
        let d2 = Bigint.gcd t d1 in
        if is_one d2 then { num = t; den = Bigint.mul ad b.den }
        else { num = Bigint.div t d2; den = Bigint.mul ad (Bigint.div b.den d2) }

let sub a b = add a (neg b)

let mul a b =
  if Bigint.is_zero a.num || Bigint.is_zero b.num then zero
  else
    let d1 = Bigint.gcd a.num b.den and d2 = Bigint.gcd b.num a.den in
    let cancel x d = if is_one d then x else Bigint.div x d in
    {
      num = Bigint.mul (cancel a.num d1) (cancel b.num d2);
      den = Bigint.mul (cancel a.den d2) (cancel b.den d1);
    }

let div a b =
  if Bigint.is_zero b.num then raise Division_by_zero
  else if Bigint.sign b.num < 0 then
    mul a { num = Bigint.neg b.den; den = Bigint.neg b.num }
  else mul a { num = b.den; den = b.num }

(* a/b ? c/d  <=>  a·d ? c·b   (denominators positive) *)
let compare a b =
  Bigint.compare (Bigint.mul a.num b.den) (Bigint.mul b.num a.den)

let equal a b = Bigint.equal a.num b.num && Bigint.equal a.den b.den
let sign t = Bigint.sign t.num
let min a b = if compare a b <= 0 then a else b
let max a b = if compare a b >= 0 then a else b
let is_integer t = Bigint.equal t.den Bigint.one

let to_string t =
  if is_integer t then Bigint.to_string t.num
  else Bigint.to_string t.num ^ "/" ^ Bigint.to_string t.den

let pp fmt t = Format.pp_print_string fmt (to_string t)
