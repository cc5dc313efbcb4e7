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

let of_pattern ~n ~colptr ~rowind =
  if n < 0 || Array.length colptr <> n + 1 || colptr.(0) <> 0 then
    invalid_arg "Sparse.of_pattern: column pointers";
  let nz = colptr.(n) in
  if Array.length rowind <> nz then invalid_arg "Sparse.of_pattern: row indices";
  for j = 0 to n - 1 do
    if colptr.(j + 1) < colptr.(j) then
      invalid_arg "Sparse.of_pattern: column pointers";
    for p = colptr.(j) to colptr.(j + 1) - 1 do
      let i = rowind.(p) in
      if i < 0 || i > j || (p > colptr.(j) && rowind.(p - 1) >= i) then
        invalid_arg "Sparse.of_pattern: rows not increasing in the upper triangle"
    done
  done;
  { n; colptr; rowind; values = Array.make nz 0.0 }

let dim a = a.n
let nnz a = a.colptr.(a.n)
let colptr a = a.colptr
let rowind a = a.rowind
let values a = a.values
let clear a = Array.fill a.values 0 (Array.length a.values) 0.0

(* Binary search for row [i] inside column [j] of the upper triangle. *)
let slot a i j =
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
  let k = slot a i j in
  if k < 0 then invalid_arg "Sparse.add: entry outside the pattern";
  a.values.(k) <- a.values.(k) +. v

let get a i j =
  let k = slot a i j in
  if k < 0 then 0.0 else a.values.(k)

let mul_vec ?into a x =
  if Array.length x <> a.n then invalid_arg "Sparse.mul_vec: dimension";
  let y =
    match into with
    | None -> Array.make a.n 0.0
    | Some y ->
      if Array.length y <> a.n || y == x then
        invalid_arg "Sparse.mul_vec: into";
      Array.fill y 0 a.n 0.0;
      y
  in
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

(* A binary min-heap of int keys with lazy deletion: [min_degree]
   pushes a vertex again whenever its degree changes and skips the
   stale keys it pops. *)
type heap = { mutable keys : int array; mutable size : int }

let heap_push h key =
  if h.size = Array.length h.keys then begin
    let keys = Array.make (max 16 (2 * h.size)) 0 in
    Array.blit h.keys 0 keys 0 h.size;
    h.keys <- keys
  end;
  let keys = h.keys in
  let i = ref h.size in
  h.size <- h.size + 1;
  while !i > 0 && keys.((!i - 1) / 2) > key do
    keys.(!i) <- keys.((!i - 1) / 2);
    i := (!i - 1) / 2
  done;
  keys.(!i) <- key

let heap_pop h =
  let keys = h.keys in
  let top = keys.(0) in
  h.size <- h.size - 1;
  let last = keys.(h.size) and n = h.size in
  let i = ref 0 and continue = ref (n > 0) in
  while !continue do
    let l = (2 * !i) + 1 in
    if l >= n then continue := false
    else begin
      let c = if l + 1 < n && keys.(l + 1) < keys.(l) then l + 1 else l in
      if keys.(c) < last then begin
        keys.(!i) <- keys.(c);
        i := c
      end
      else continue := false
    end
  done;
  if n > 0 then keys.(!i) <- last;
  top

(* Greedy minimum degree on the quotient-free (explicit clique merge)
   graph.  The vertex eliminated next is the alive one of smallest
   (degree, index), found through a heap keyed by [degree·n + index]
   in O(log n) instead of a scan of every vertex, so selection costs
   O(nnz·log n) over the whole ordering; the clique merges are the
   same explicit ones as before.  Determinism matters more than
   constant factors: candidate selection and neighbour merges always
   break ties toward the smallest index. *)
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
  let nbrs = Array.make n 0 in
  let queue = { keys = Array.make (max 16 (2 * n)) 0; size = 0 } in
  for v = 0 to n - 1 do
    heap_push queue ((deg.(v) * n) + v)
  done;
  for k = 0 to n - 1 do
    (* Pop the alive vertex of minimum degree, smallest index first;
       a key whose vertex is dead or whose degree has moved on since
       it was pushed is stale. *)
    let v = ref (-1) in
    while !v < 0 do
      let key = heap_pop queue in
      let u = key mod n in
      if alive.(u) && deg.(u) = key / n then v := u
    done;
    let v = !v in
    perm.(k) <- v;
    alive.(v) <- false;
    let nn = ref 0 in
    Array.iter
      (fun u ->
        if alive.(u) then begin
          nbrs.(!nn) <- u;
          incr nn
        end)
      adj.(v);
    let nn = !nn in
    (* Eliminating [v] turns its alive neighbourhood into a clique. *)
    for a = 0 to nn - 1 do
      let u = nbrs.(a) in
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
      for b = 0 to nn - 1 do
        let w = nbrs.(b) in
        if w <> u && stamp.(w) <> t then begin
          stamp.(w) <- t;
          scratch.(!len) <- w;
          incr len
        end
      done;
      adj.(u) <- Array.sub scratch 0 !len;
      deg.(u) <- !len;
      heap_push queue ((!len * n) + u)
    done
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

(* The factor [L] and the scratch of its numeric phase: one storage
   per symbolic analysis, overwritten by every refactorisation that is
   handed it, so an interior-point solve factors in fixed memory. *)
type factor = {
  sy : symbolic;
  lrowind : int array;
  lvalues : float array;
  mutable fshift : float;
  next : int array;
  x : float array;
      (* the up-looking solve's dense accumulator; the solves' permuted vector *)
  w : int array;
  stack : int array;
  s : int array;
}

let factor_storage sy =
  let n = sy.sn and lnz = sy.lcolptr.(sy.sn) in
  {
    sy;
    lrowind = Array.make lnz 0;
    lvalues = Array.make lnz 0.0;
    fshift = 0.0;
    next = Array.make n 0;
    x = Array.make n 0.0;
    w = Array.make n (-1);
    stack = Array.make n 0;
    s = Array.make n 0;
  }

let shift f = f.fshift

(* Up-looking Cholesky (cs_chol): for each row k of L, the nonzero
   pattern is the union of the elimination-tree paths from the entries
   of the permuted column k — computed on the fly — and the values
   come from one sparse triangular solve against the columns already
   built.  By construction the first stored entry of every L column is
   its diagonal.  Every entry of L an attempt reads was written earlier
   in that attempt, so the storage needs no clearing between attempts;
   only the marks and the accumulator are reset. *)
let refactor_into f a ~shift =
  let sy = f.sy in
  let n = sy.sn in
  if a.n <> n then invalid_arg "Sparse.refactor: dimension mismatch";
  if Array.length a.values < sy.psrc_bound then
    invalid_arg "Sparse.refactor: pattern mismatch";
  let lrowind = f.lrowind and lvalues = f.lvalues in
  let next = f.next and x = f.x and w = f.w and stack = f.stack and s = f.s in
  Array.blit sy.lcolptr 0 next 0 n;
  Array.fill x 0 n 0.0;
  Array.fill w 0 n (-1);
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
  f.fshift <- shift;
  !ok

let refactor sy a ~shift =
  let f = factor_storage sy in
  if refactor_into f a ~shift then Some f else None

let factor ?(max_shift = 1e-4) ?into sy a =
  let f =
    match into with
    | None -> factor_storage sy
    | Some f ->
      if f.sy != sy then
        invalid_arg "Sparse.factor: into belongs to another analysis";
      f
  in
  let scale =
    let fr = frobenius a in
    if fr > 0.0 then fr else 1.0
  in
  let rec attempt shift =
    if refactor_into f a ~shift then f
    else
      let next = if shift = 0.0 then 1e-14 *. scale else shift *. 100.0 in
      if next > max_shift *. scale then raise Not_positive_definite
      else attempt next
  in
  attempt 0.0

let solve ?into f b =
  let sy = f.sy in
  let n = sy.sn in
  if Array.length b <> n then invalid_arg "Sparse.solve: dimension";
  let out =
    match into with
    | None -> Array.make n 0.0
    | Some out ->
      if Array.length out <> n then invalid_arg "Sparse.solve: into";
      out
  in
  let y = f.x and perm = sy.perm and lcolptr = sy.lcolptr in
  let lrowind = f.lrowind and lvalues = f.lvalues in
  for i = 0 to n - 1 do
    y.(i) <- b.(perm.(i))
  done;
  for j = 0 to n - 1 do
    let p0 = lcolptr.(j) in
    let yj = y.(j) /. lvalues.(p0) in
    y.(j) <- yj;
    for p = p0 + 1 to lcolptr.(j + 1) - 1 do
      y.(lrowind.(p)) <- y.(lrowind.(p)) -. (lvalues.(p) *. yj)
    done
  done;
  for j = n - 1 downto 0 do
    let p0 = lcolptr.(j) in
    let acc = ref y.(j) in
    for p = p0 + 1 to lcolptr.(j + 1) - 1 do
      acc := !acc -. (lvalues.(p) *. y.(lrowind.(p)))
    done;
    y.(j) <- !acc /. lvalues.(p0)
  done;
  for i = 0 to n - 1 do
    out.(sy.perm.(i)) <- y.(i)
  done;
  out
