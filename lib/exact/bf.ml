type verdict = Feasible of Rat.t array | Positive_cycle of int list

(* The relaxation needs only [add] and [compare], so it is written once
   over the number type: native [int] when the scaled weights provably
   fit, [Bigint] otherwise.  Both make the same comparisons on the same
   exact values, so [pred], [last] and the extracted cycle agree. *)
module type NUM = sig
  type t

  val zero : t
  val add : t -> t -> t
  val compare : t -> t -> int
end

type 'n outcome = Fixpoint of 'n array | Cycle of int list

let relaxation (type n) (module N : NUM with type t = n) ~nodes edges
    (scaled : n array) =
  let src = Array.map (fun (s, _, _) -> s) edges
  and dst = Array.map (fun (_, t, _) -> t) edges in
  let d = Array.make nodes N.zero in
  let pred = Array.make nodes (-1) in
  let last = ref (-1) in
  let relax () =
    let any = ref false in
    for k = 0 to Array.length edges - 1 do
      let t = dst.(k) in
      let nd = N.add d.(src.(k)) scaled.(k) in
      if N.compare nd d.(t) > 0 then begin
        d.(t) <- nd;
        pred.(t) <- k;
        any := true;
        last := t
      end
    done;
    !any
  in
  let changed = ref true in
  let rounds = ref 0 in
  while !changed && !rounds <= nodes do
    changed := relax ();
    incr rounds
  done;
  if not !changed then Fixpoint d
  else begin
    (* A relaxation fired on round [nodes + 1]: some cycle has
       positive weight.  Trace the predecessor graph back from the
       last updated node until it closes on itself; a few extra
       relaxation passes deepen the predecessor pointers if the
       first trace runs off the relaxed region. *)
    let extract () =
      let visited = Array.make nodes (-1) in
      let rec walk v step =
        if step > nodes + 1 || v < 0 || pred.(v) < 0 then None
        else if visited.(v) >= 0 then Some v
        else begin
          visited.(v) <- step;
          walk src.(pred.(v)) (step + 1)
        end
      in
      match walk !last 0 with
      | None -> None
      | Some u ->
          let rec collect v acc steps =
            if steps > nodes + 1 then None
            else
              let e = pred.(v) in
              if src.(e) = u then Some (e :: acc)
              else collect src.(e) (e :: acc) (steps + 1)
          in
          collect u [] 0
    in
    let rec attempt i =
      match extract () with
      | Some cycle -> Cycle cycle
      | None when i < nodes ->
          ignore (relax ());
          attempt (i + 1)
      | None -> Cycle []
    in
    attempt 0
  end

module Native = struct
  type t = int

  let zero = 0
  let add = ( + )
  let compare = Int.compare
end

(* At most [2·nodes + 1] relaxation rounds run (the fixpoint loop, then
   the passes of cycle extraction), and each round relaxes every edge
   at most once.  Every [d] starts at 0 and only grows, and a relaxed
   value is [d(src) + w], so after [r] rounds each [d] lies in
   [0, r·|edges|·W], W = max |w|, and each candidate [d(src) + w] in
   [-W, (r·|edges| + 1)·W].  (In-place relaxation can chain several
   edges within one round, so the bound counts edges, not rounds.)
   Native [int] is exact while that bound stays within [max_int]. *)
let fits_native ~nodes scaled =
  let w =
    Array.fold_left
      (fun acc x ->
        let a = Bigint.abs x in
        if Bigint.compare a acc > 0 then a else acc)
      Bigint.zero scaled
  in
  let steps = ((2 * nodes) + 1) * Array.length scaled + 1 in
  Bigint.compare (Bigint.mul (Bigint.of_int steps) w) (Bigint.of_int max_int)
  <= 0

let longest_path ~nodes edges =
  if nodes = 0 then Feasible [||]
  else begin
    (* One common denominator for every weight: the relaxation loop
       then needs only integer adds and compares. *)
    let den =
      Array.fold_left
        (fun acc (_, _, w) -> Bigint.lcm acc w.Rat.den)
        Bigint.one edges
    in
    let scaled =
      Array.map
        (fun (_, _, w) -> Bigint.mul w.Rat.num (Bigint.div den w.Rat.den))
        edges
    in
    let verdict to_bigint = function
      | Fixpoint d ->
          Feasible (Array.map (fun di -> Rat.make (to_bigint di) den) d)
      | Cycle c -> Positive_cycle c
    in
    if fits_native ~nodes scaled then
      let native = Array.map (fun x -> Option.get (Bigint.to_int x)) scaled in
      verdict Bigint.of_int (relaxation (module Native) ~nodes edges native)
    else verdict Fun.id (relaxation (module Bigint) ~nodes edges scaled)
  end
