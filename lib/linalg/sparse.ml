(* Sparse symmetric Cholesky in the style of CSparse's cs_chol: an
   upper-triangle CSC store, a deterministic minimum-degree ordering,
   a one-shot symbolic phase (elimination tree + column counts), and
   an up-looking numeric refactorisation that is the only part run
   per interior-point iteration. *)

type sym = {
  n : int;
  colptr : int array;  (* n+1 entries *)
  rowind : int array;  (* row of each entry; row <= col, sorted per column *)
  values : float array;
}

exception Not_positive_definite

let create ~n triplets =
  if n < 0 then invalid_arg "Sparse.create: negative dimension";
  let upper =
    List.map
      (fun (i, j, v) ->
        if i < 0 || i >= n || j < 0 || j >= n then
          invalid_arg "Sparse.create: index out of range";
        if i <= j then (j, i, v) else (i, j, v))
      triplets
  in
  let sorted =
    List.sort
      (fun (c1, r1, _) (c2, r2, _) -> if c1 <> c2 then compare c1 c2 else compare r1 r2)
      upper
  in
  (* Merge duplicates, count per column. *)
  let merged =
    List.fold_left
      (fun acc (c, r, v) ->
        match acc with
        | (c', r', v') :: rest when c' = c && r' = r -> (c, r, v +. v') :: rest
        | _ -> (c, r, v) :: acc)
      [] sorted
    |> List.rev
  in
  let nz = List.length merged in
  let colptr = Array.make (n + 1) 0 in
  let rowind = Array.make nz 0 in
  let values = Array.make nz 0.0 in
  List.iteri
    (fun k (c, r, v) ->
      colptr.(c + 1) <- colptr.(c + 1) + 1;
      rowind.(k) <- r;
      values.(k) <- v)
    merged;
  for c = 0 to n - 1 do
    colptr.(c + 1) <- colptr.(c) + colptr.(c + 1)
  done;
  { n; colptr; rowind; values }

let dim a = a.n
let nnz a = a.colptr.(a.n)
let clear a = Array.fill a.values 0 (Array.length a.values) 0.0

(* Binary search for row [i] inside column [j] of the upper triangle. *)
let index a i j =
  let i, j = if i <= j then (i, j) else (j, i) in
  let lo = ref a.colptr.(j) and hi = ref (a.colptr.(j + 1) - 1) in
  let found = ref (-1) in
  while !found < 0 && !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let r = a.rowind.(mid) in
    if r = i then found := mid else if r < i then lo := mid + 1 else hi := mid - 1
  done;
  !found

let add a i j v =
  let k = index a i j in
  if k < 0 then invalid_arg "Sparse.add: entry outside the pattern";
  a.values.(k) <- a.values.(k) +. v

let get a i j =
  let k = index a i j in
  if k < 0 then 0.0 else a.values.(k)

let mul_vec a x =
  if Array.length x <> a.n then invalid_arg "Sparse.mul_vec: dimension";
  let y = Array.make a.n 0.0 in
  for j = 0 to a.n - 1 do
    for p = a.colptr.(j) to a.colptr.(j + 1) - 1 do
      let i = a.rowind.(p) and v = a.values.(p) in
      y.(i) <- y.(i) +. (v *. x.(j));
      if i <> j then y.(j) <- y.(j) +. (v *. x.(i))
    done
  done;
  y

let to_dense a =
  let m = Mat.create a.n a.n in
  for j = 0 to a.n - 1 do
    for p = a.colptr.(j) to a.colptr.(j + 1) - 1 do
      let i = a.rowind.(p) and v = a.values.(p) in
      Mat.set m i j v;
      if i <> j then Mat.set m j i v
    done
  done;
  m

(* Frobenius norm of the full symmetric matrix: off-diagonals count
   twice, matching the scale the dense shift policy uses. *)
let frobenius a =
  let acc = ref 0.0 in
  for j = 0 to a.n - 1 do
    for p = a.colptr.(j) to a.colptr.(j + 1) - 1 do
      let v = a.values.(p) in
      let sq = v *. v in
      acc := !acc +. if a.rowind.(p) = j then sq else 2.0 *. sq
    done
  done;
  sqrt !acc

(* ---- minimum-degree ordering ------------------------------------- *)

(* Greedy minimum degree on the quotient-free (explicit clique merge)
   graph.  Quadratic in the worst case, but the KKT patterns here are
   near-banded and small relative to solve cost.  Determinism matters
   more than constant factors: candidate selection and neighbour
   merges always break ties toward the smallest index. *)
let min_degree a =
  let n = a.n in
  let adj = Array.make n [||] in
  (* Build full (both triangles) adjacency, diagonal excluded. *)
  let deg = Array.make n 0 in
  for j = 0 to n - 1 do
    for p = a.colptr.(j) to a.colptr.(j + 1) - 1 do
      let i = a.rowind.(p) in
      if i <> j then begin
        deg.(i) <- deg.(i) + 1;
        deg.(j) <- deg.(j) + 1
      end
    done
  done;
  let fill = Array.make n 0 in
  Array.iteri (fun v d -> adj.(v) <- Array.make d 0) deg;
  for j = 0 to n - 1 do
    for p = a.colptr.(j) to a.colptr.(j + 1) - 1 do
      let i = a.rowind.(p) in
      if i <> j then begin
        adj.(i).(fill.(i)) <- j;
        fill.(i) <- fill.(i) + 1;
        adj.(j).(fill.(j)) <- i;
        fill.(j) <- fill.(j) + 1
      end
    done
  done;
  let alive = Array.make n true in
  let stamp = Array.make n (-1) in
  let tag = ref 0 in
  let perm = Array.make n 0 in
  let scratch = Array.make n 0 in
  for k = 0 to n - 1 do
    (* Pick the alive vertex of minimum degree, smallest index first. *)
    let best = ref (-1) in
    for v = n - 1 downto 0 do
      if alive.(v) && (!best < 0 || deg.(v) <= deg.(!best)) then best := v
    done;
    let v = !best in
    perm.(k) <- v;
    alive.(v) <- false;
    let nbrs = Array.of_seq (Seq.filter (fun u -> alive.(u)) (Array.to_seq adj.(v))) in
    (* Eliminating [v] turns its alive neighbourhood into a clique. *)
    Array.iter
      (fun u ->
        incr tag;
        let t = !tag in
        stamp.(u) <- t;
        let len = ref 0 in
        Array.iter
          (fun w ->
            if alive.(w) && stamp.(w) <> t then begin
              stamp.(w) <- t;
              scratch.(!len) <- w;
              incr len
            end)
          adj.(u);
        Array.iter
          (fun w ->
            if w <> u && stamp.(w) <> t then begin
              stamp.(w) <- t;
              scratch.(!len) <- w;
              incr len
            end)
          nbrs;
        adj.(u) <- Array.sub scratch 0 !len;
        deg.(u) <- !len)
      nbrs
  done;
  perm

(* ---- symbolic phase ----------------------------------------------- *)

type symbolic = {
  sn : int;
  perm : int array;  (* perm.(k) = original index eliminated k-th *)
  pinv : int array;
  parent : int array;  (* elimination tree on permuted indices *)
  pcolptr : int array;  (* permuted upper-triangle pattern... *)
  prowind : int array;
  psrc : int array;  (* ...with each entry mapped to its value slot in the original matrix *)
  psrc_bound : int;  (* 1 + the largest slot in psrc, 0 if empty *)
  lcolptr : int array;  (* column pointers of the factor L (lower CSC) *)
}

let factor_nnz s = s.lcolptr.(s.sn)

let symbolic ?order a =
  let n = a.n in
  let perm =
    match order with
    | None -> min_degree a
    | Some p ->
      if Array.length p <> n then invalid_arg "Sparse.symbolic: order length";
      let seen = Array.make n false in
      Array.iter
        (fun v ->
          if v < 0 || v >= n || seen.(v) then
            invalid_arg "Sparse.symbolic: order is not a permutation";
          seen.(v) <- true)
        p;
      Array.copy p
  in
  let pinv = Array.make n 0 in
  Array.iteri (fun k v -> pinv.(v) <- k) perm;
  (* Permuted upper-triangle pattern, carrying the source value index
     so refactorisation can read values straight out of the original
     matrix without re-permuting it. *)
  let cols = Array.make n [] in
  for j = 0 to n - 1 do
    for p = a.colptr.(j) to a.colptr.(j + 1) - 1 do
      let i = a.rowind.(p) in
      let pi = pinv.(i) and pj = pinv.(j) in
      let r, c = if pi <= pj then (pi, pj) else (pj, pi) in
      cols.(c) <- (r, p) :: cols.(c)
    done
  done;
  let pcolptr = Array.make (n + 1) 0 in
  Array.iteri (fun c l -> pcolptr.(c + 1) <- List.length l) cols;
  for c = 0 to n - 1 do
    pcolptr.(c + 1) <- pcolptr.(c) + pcolptr.(c + 1)
  done;
  let pnz = pcolptr.(n) in
  let prowind = Array.make pnz 0 and psrc = Array.make pnz 0 in
  (* Fill sorted by row within each column. *)
  Array.iteri
    (fun c l ->
      let sorted = List.sort (fun (r1, _) (r2, _) -> compare r1 r2) l in
      List.iteri
        (fun k (r, p) ->
          prowind.(pcolptr.(c) + k) <- r;
          psrc.(pcolptr.(c) + k) <- p)
        sorted)
    cols;
  (* Elimination tree with ancestor path compression (cs_etree). *)
  let parent = Array.make n (-1) and ancestor = Array.make n (-1) in
  for k = 0 to n - 1 do
    for p = pcolptr.(k) to pcolptr.(k + 1) - 1 do
      let i = ref (prowind.(p)) in
      while !i <> -1 && !i < k do
        let nxt = ancestor.(!i) in
        ancestor.(!i) <- k;
        if nxt = -1 then parent.(!i) <- k;
        i := nxt
      done
    done
  done;
  (* Column counts of L by replaying the row subtrees (cs_ereach
     walks, counting each visited column once per row). *)
  let w = Array.make n (-1) in
  let count = Array.make n 1 (* the diagonal *) in
  for k = 0 to n - 1 do
    w.(k) <- k;
    for p = pcolptr.(k) to pcolptr.(k + 1) - 1 do
      let i = ref (prowind.(p)) in
      while !i < k && w.(!i) <> k do
        count.(!i) <- count.(!i) + 1;
        w.(!i) <- k;
        i := parent.(!i)
      done
    done
  done;
  let lcolptr = Array.make (n + 1) 0 in
  for c = 0 to n - 1 do
    lcolptr.(c + 1) <- lcolptr.(c) + count.(c)
  done;
  let psrc_bound = Array.fold_left (fun acc p -> max acc (p + 1)) 0 psrc in
  { sn = n; perm; pinv; parent; pcolptr; prowind; psrc; psrc_bound; lcolptr }

(* ---- numeric phase ------------------------------------------------ *)

type factor = {
  sy : symbolic;
  lrowind : int array;
  lvalues : float array;
  fshift : float;
}

let shift f = f.fshift

(* Up-looking Cholesky (cs_chol): for each row k of L, the nonzero
   pattern is the union of the elimination-tree paths from the entries
   of the permuted column k — computed on the fly — and the values
   come from one sparse triangular solve against the columns already
   built.  By construction the first stored entry of every L column is
   its diagonal. *)
let refactor sy a ~shift =
  let n = sy.sn in
  if a.n <> n then invalid_arg "Sparse.refactor: dimension mismatch";
  if Array.length a.values < sy.psrc_bound then
    invalid_arg "Sparse.refactor: pattern mismatch";
  let lnz = sy.lcolptr.(n) in
  let lrowind = Array.make lnz 0 and lvalues = Array.make lnz 0.0 in
  let next = Array.sub sy.lcolptr 0 n in
  let x = Array.make n 0.0 in
  let w = Array.make n (-1) in
  let stack = Array.make n 0 in
  let s = Array.make n 0 in
  let ok = ref true in
  (try
     for k = 0 to n - 1 do
       (* Scatter column k of the permuted matrix and collect the
          reach of its entries through the elimination tree. *)
       let top = ref n in
       w.(k) <- k;
       x.(k) <- 0.0;
       for p = sy.pcolptr.(k) to sy.pcolptr.(k + 1) - 1 do
         let i = sy.prowind.(p) in
         x.(i) <- x.(i) +. a.values.(sy.psrc.(p));
         let len = ref 0 in
         let j = ref i in
         while w.(!j) <> k do
           stack.(!len) <- !j;
           incr len;
           w.(!j) <- k;
           j := sy.parent.(!j)
         done;
         while !len > 0 do
           decr len;
           decr top;
           s.(!top) <- stack.(!len)
         done
       done;
       let d = ref (x.(k) +. shift) in
       x.(k) <- 0.0;
       (* Sparse triangular solve in topological order. *)
       for t = !top to n - 1 do
         let i = s.(t) in
         let lki = x.(i) /. lvalues.(sy.lcolptr.(i)) in
         x.(i) <- 0.0;
         for p = sy.lcolptr.(i) + 1 to next.(i) - 1 do
           x.(lrowind.(p)) <- x.(lrowind.(p)) -. (lvalues.(p) *. lki)
         done;
         d := !d -. (lki *. lki);
         let p = next.(i) in
         next.(i) <- p + 1;
         lrowind.(p) <- k;
         lvalues.(p) <- lki
       done;
       if (not (Float.is_finite !d)) || !d <= 0.0 then begin
         ok := false;
         raise Exit
       end;
       let p = next.(k) in
       next.(k) <- p + 1;
       lrowind.(p) <- k;
       lvalues.(p) <- sqrt !d
     done
   with Exit -> ());
  if !ok then Some { sy; lrowind; lvalues; fshift = shift } else None

let factor ?(max_shift = 1e-4) sy a =
  let scale =
    let f = frobenius a in
    if f > 0.0 then f else 1.0
  in
  let rec attempt shift =
    match refactor sy a ~shift with
    | Some f -> f
    | None ->
      let next = if shift = 0.0 then 1e-14 *. scale else shift *. 100.0 in
      if next > max_shift *. scale then raise Not_positive_definite
      else attempt next
  in
  attempt 0.0

let solve f b =
  let sy = f.sy in
  let n = sy.sn in
  if Array.length b <> n then invalid_arg "Sparse.solve: dimension";
  let y = Array.init n (fun i -> b.(sy.perm.(i))) in
  for j = 0 to n - 1 do
    let p0 = sy.lcolptr.(j) in
    let yj = y.(j) /. f.lvalues.(p0) in
    y.(j) <- yj;
    for p = p0 + 1 to sy.lcolptr.(j + 1) - 1 do
      y.(f.lrowind.(p)) <- y.(f.lrowind.(p)) -. (f.lvalues.(p) *. yj)
    done
  done;
  for j = n - 1 downto 0 do
    let p0 = sy.lcolptr.(j) in
    let acc = ref y.(j) in
    for p = p0 + 1 to sy.lcolptr.(j + 1) - 1 do
      acc := !acc -. (f.lvalues.(p) *. y.(f.lrowind.(p)))
    done;
    y.(j) <- !acc /. f.lvalues.(p0)
  done;
  let out = Array.make n 0.0 in
  for i = 0 to n - 1 do
    out.(sy.perm.(i)) <- y.(i)
  done;
  out
