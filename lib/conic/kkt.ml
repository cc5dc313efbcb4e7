module Vec = Linalg.Vec
module Mat = Linalg.Mat
module Cholesky = Linalg.Cholesky
module Sparse = Linalg.Sparse

(* A [Nonneg] row with more nonzeros than this is a shared-resource
   row — constraint (9) over one processor's budgets or (10) over one
   memory's buffers — whose outer product would put a clique of that
   size into GᵀW⁻²G.  Every other row of Algorithm 1 (cycle, bound and
   cone rows) has at most a handful of nonzeros.  Such dense rows stay
   out of the sparse factor and come back as a low-rank update. *)
let dense_row_threshold = 16

(* Per-solve n×n storage of the dense fallback, the Gram matrix and its
   Cholesky factor, overwritten by every iteration that takes it.  Lazy,
   so a solve allocates it only on its first fallback iteration. *)
type dense_store = { gram : Mat.t; chol : Mat.t }

(* Which factorisation the current iteration's solves go through. *)
type mode = Sparse_mode | Dense_mode of Mat.t * Cholesky.factor

type t = {
  g : Sparse_rows.t;
  kinds : Cone.block array;
  offsets : int array;  (* of each block *)
  obs : Obs.Ctx.t option;
  (* Capacity of each scaled row: an orthant row keeps its own columns,
     the rows of an SOC block share their block's column union.  Row i
     may hold entries only in columns
     [cap_col.(cap_start.(i) .. cap_start.(i) + cap_len.(i) - 1)]. *)
  cap_start : int array;
  cap_len : int array;
  cap_col : int array;
  upos : int array;
      (* per entry of [g]: its position among its row's capacity columns *)
  acc : float array;  (* SOC accumulator, one slot per union column *)
  scaled : Sparse_rows.t;  (* W⁻¹·G, refilled every iteration *)
  spos : int array;  (* per scaled entry: its capacity position *)
  (* The Gram pattern of the rows outside [dense] and, per capacity
     range, the pattern slot of every capacity pair (a ≤ b) in
     row-major upper-triangle order, starting at [tri_start.(i)]. *)
  pattern : Sparse.sym;
  tri_start : int array;
  gslot : int array;
  symbolic : Sparse.symbolic;
  factor : Sparse.factor;
  dense : int array;
  (* Sherman–Morrison–Woodbury storage for the dense rows. *)
  scatter : Vec.t;
  u : Vec.t array;
  capm : Mat.t;
  capl : Mat.t;
  mutable capf : Cholesky.factor option;
  store : dense_store Lazy.t;
  mutable mode : mode;
  mutable fallbacks : int;
  (* Vectors of one KKT solve. *)
  tm : Vec.t;
  rhs : Vec.t;
  res : Vec.t;
  corr : Vec.t;
  ax : Vec.t;
}

let emit ws ev = match ws.obs with None -> () | Some o -> Obs.Ctx.emit o ev

(* The pattern of Σ rᵀr over the capacity ranges [groups], with every
   diagonal entry kept structurally (the shift policy touches all of
   them), built straight into upper-triangle CSC: the pairs are
   collected per smaller index j in increasing j and then transposed,
   so every column comes out with its rows sorted. *)
let gram_pattern ~n ~cap_col groups =
  let col_groups_ptr = Array.make (n + 1) 0 in
  List.iter
    (fun (start, len) ->
      for a = start to start + len - 1 do
        let c = cap_col.(a) in
        col_groups_ptr.(c + 1) <- col_groups_ptr.(c + 1) + 1
      done)
    groups;
  for c = 0 to n - 1 do
    col_groups_ptr.(c + 1) <- col_groups_ptr.(c) + col_groups_ptr.(c + 1)
  done;
  (* For each column, the capacity position where it sits in each of
     its groups, together with the group's end. *)
  let where = Array.make col_groups_ptr.(n) 0
  and until = Array.make col_groups_ptr.(n) 0 in
  let fill = Array.sub col_groups_ptr 0 n in
  List.iter
    (fun (start, len) ->
      for a = start to start + len - 1 do
        let c = cap_col.(a) in
        where.(fill.(c)) <- a;
        until.(fill.(c)) <- start + len;
        fill.(c) <- fill.(c) + 1
      done)
    groups;
  let stamp = Array.make n (-1) in
  let row_ptr = Array.make (n + 1) 0 in
  let pairs = ref (Array.make (max 16 (2 * n)) 0) and np = ref 0 in
  let push k =
    if !np = Array.length !pairs then begin
      let grown = Array.make (2 * !np) 0 in
      Array.blit !pairs 0 grown 0 !np;
      pairs := grown
    end;
    !pairs.(!np) <- k;
    incr np
  in
  let count = Array.make n 0 in
  for j = 0 to n - 1 do
    stamp.(j) <- j;
    push j;
    count.(j) <- count.(j) + 1;
    for e = col_groups_ptr.(j) to col_groups_ptr.(j + 1) - 1 do
      for a = where.(e) + 1 to until.(e) - 1 do
        let k = cap_col.(a) in
        if stamp.(k) <> j then begin
          stamp.(k) <- j;
          push k;
          count.(k) <- count.(k) + 1
        end
      done
    done;
    row_ptr.(j + 1) <- !np
  done;
  let colptr = Array.make (n + 1) 0 in
  for k = 0 to n - 1 do
    colptr.(k + 1) <- colptr.(k) + count.(k)
  done;
  let rowind = Array.make colptr.(n) 0 in
  let next = Array.sub colptr 0 n in
  for j = 0 to n - 1 do
    for p = row_ptr.(j) to row_ptr.(j + 1) - 1 do
      let k = !pairs.(p) in
      rowind.(next.(k)) <- j;
      next.(k) <- next.(k) + 1
    done
  done;
  Sparse.of_pattern ~n ~colptr ~rowind

let create ?obs ~g cone =
  let m = Sparse_rows.rows g and n = Sparse_rows.cols g in
  let { Sparse_rows.ptr; col; _ } = g in
  let kinds = Array.of_list (Cone.blocks cone) in
  let offsets = Array.make (Array.length kinds) 0 in
  for b = 1 to Array.length kinds - 1 do
    match kinds.(b - 1) with
    | Cone.Nonneg d | Cone.Soc d -> offsets.(b) <- offsets.(b - 1) + d
  done;
  let orthant = ref [] in
  Array.iteri
    (fun b kind ->
      match kind with
      | Cone.Nonneg d -> orthant := (offsets.(b), d) :: !orthant
      | Cone.Soc _ -> ())
    kinds;
  let dense =
    Sparse_rows.dense_rows g ~among:(List.rev !orthant)
      ~above:dense_row_threshold
  in
  let is_dense = Array.make m false in
  Array.iter (fun i -> is_dense.(i) <- true) dense;
  (* Capacity ranges, in row order: an orthant row's own columns (so
     [upos] is the entry's offset in its row), one sorted column union
     shared by the rows of an SOC block.  [groups] lists the ranges
     that enter the Gram pattern with their first and last row. *)
  let cap_start = Array.make m 0 and cap_len = Array.make m 0 in
  let upos = Array.make (Sparse_rows.nnz g) 0 in
  (* A union has at most its block's entries, so the ranges fit in
     [nnz g] columns. *)
  let cap_col = Array.make (Sparse_rows.nnz g) 0 and next = ref 0 in
  let groups = ref [] in
  Array.iteri
    (fun b kind ->
      let o = offsets.(b) in
      match kind with
      | Cone.Nonneg d ->
        for i = o to o + d - 1 do
          let len = ptr.(i + 1) - ptr.(i) in
          cap_start.(i) <- !next;
          cap_len.(i) <- len;
          Array.blit col ptr.(i) cap_col !next len;
          for p = ptr.(i) to ptr.(i + 1) - 1 do
            upos.(p) <- p - ptr.(i)
          done;
          if not is_dense.(i) then groups := (!next, len, i, i) :: !groups;
          next := !next + len
        done
      | Cone.Soc d ->
        let union =
          List.sort_uniq Int.compare
            (Array.to_list (Array.sub col ptr.(o) (ptr.(o + d) - ptr.(o))))
        in
        let len = List.length union in
        List.iteri (fun a c -> cap_col.(!next + a) <- c) union;
        for i = o to o + d - 1 do
          cap_start.(i) <- !next;
          cap_len.(i) <- len;
          let a = ref 0 in
          for p = ptr.(i) to ptr.(i + 1) - 1 do
            while cap_col.(!next + !a) < col.(p) do
              incr a
            done;
            upos.(p) <- !a
          done
        done;
        groups := (!next, len, o, o + d - 1) :: !groups;
        next := !next + len)
    kinds;
  let groups = List.rev !groups in
  let pattern =
    gram_pattern ~n ~cap_col
      (List.map (fun (start, len, _, _) -> (start, len)) groups)
  in
  (* Slot tables, one per range in [groups]. *)
  let tri_start = Array.make m (-1) in
  let total =
    List.fold_left
      (fun t0 (_, len, lo, hi) ->
        for i = lo to hi do
          tri_start.(i) <- t0
        done;
        t0 + (len * (len + 1) / 2))
      0 groups
  in
  let gslot = Array.make total 0 in
  List.iter
    (fun (start, len, lo, _) ->
      let q = ref tri_start.(lo) in
      for a = 0 to len - 1 do
        for b = a to len - 1 do
          gslot.(!q) <-
            Sparse.slot pattern cap_col.(start + a) cap_col.(start + b);
          incr q
        done
      done)
    groups;
  let symbolic = Sparse.symbolic pattern in
  (match obs with
  | None -> ()
  | Some o ->
    Obs.Ctx.emit o
      (Obs.Trace.Kkt_factor
         {
           backend = "sparse";
           phase = "symbolic";
           n;
           nnz = Sparse.factor_nnz symbolic;
         }));
  let k = Array.length dense in
  (* Every row of an SOC block may fill its whole union. *)
  let capacity = Array.fold_left ( + ) 0 cap_len in
  {
    g;
    kinds;
    offsets;
    obs;
    cap_start;
    cap_len;
    cap_col;
    upos;
    acc = Array.make (Array.fold_left max 0 cap_len) 0.0;
    scaled = Sparse_rows.empty ~rows:m ~cols:n ~capacity;
    spos = Array.make capacity 0;
    pattern;
    tri_start;
    gslot;
    symbolic;
    factor = Sparse.factor_storage symbolic;
    dense;
    scatter = Vec.create n;
    u = Array.init k (fun _ -> Vec.create n);
    capm = Mat.create k k;
    capl = Mat.create k k;
    capf = None;
    store = lazy { gram = Mat.create n n; chol = Mat.create n n };
    mode = Sparse_mode;
    fallbacks = 0;
    tm = Vec.create m;
    rhs = Vec.create n;
    res = Vec.create n;
    corr = Vec.create n;
    ax = Vec.create n;
  }

let scaled ws = ws.scaled
let gram ws = ws.pattern
let dense ws = ws.dense
let fallbacks ws = ws.fallbacks

(* W⁻¹·G into the scaled rows.  An orthant row is scaled by 1/wᵢ.  On
   an SOC block W⁻¹ = η⁻¹·(2·(Jv)(Jv)ᵀ − J), so row i of the result
   mixes the block's rows with coefficients 2·(Jv)ᵢ·(Jv)ₖ − Jᵢᵢ·[i=k],
   summed per column over k in order on a dense accumulator over the
   block's column union.  Exact zeros are dropped either way. *)
let scale_rows ws (w : Cone.scaling) =
  let { Sparse_rows.ptr; col; value; _ } = ws.g in
  let sc = ws.scaled in
  let sptr = sc.Sparse_rows.ptr
  and scol = sc.Sparse_rows.col
  and sval = sc.Sparse_rows.value in
  let spos = ws.spos and acc = ws.acc and v = w.Cone.w in
  let q = ref 0 in
  for bi = 0 to Array.length ws.kinds - 1 do
    let o = ws.offsets.(bi) in
    match ws.kinds.(bi) with
    | Cone.Nonneg d ->
      for i = o to o + d - 1 do
        let coeff = 1.0 /. v.(i) in
        for p = ptr.(i) to ptr.(i + 1) - 1 do
          let x = coeff *. value.(p) in
          if x <> 0.0 then begin
            scol.(!q) <- col.(p);
            sval.(!q) <- x;
            spos.(!q) <- p - ptr.(i);
            incr q
          end
        done;
        sptr.(i + 1) <- !q
      done
    | Cone.Soc d ->
      let eta = w.Cone.eta.(bi) in
      let start = ws.cap_start.(o) and len = ws.cap_len.(o) in
      for i = 0 to d - 1 do
        Array.fill acc 0 len 0.0;
        let jvi = if i = 0 then v.(o) else -.v.(o + i) in
        for k = 0 to d - 1 do
          let jvk = if k = 0 then v.(o) else -.v.(o + k) in
          let coeff =
            ((2.0 *. jvi *. jvk)
            -. (if i = k then if i = 0 then 1.0 else -1.0 else 0.0))
            /. eta
          in
          if coeff <> 0.0 then
            for p = ptr.(o + k) to ptr.(o + k + 1) - 1 do
              let a = ws.upos.(p) in
              acc.(a) <- acc.(a) +. (coeff *. value.(p))
            done
        done;
        for a = 0 to len - 1 do
          if acc.(a) <> 0.0 then begin
            scol.(!q) <- ws.cap_col.(start + a);
            sval.(!q) <- acc.(a);
            spos.(!q) <- a;
            incr q
          end
        done;
        sptr.(o + i + 1) <- !q
      done
  done

(* Σ rᵀr over the scaled rows outside [dense], into the pattern's
   values through the slot tables; per slot the products arrive in row
   order, as a row-by-row accumulation would add them. *)
let fill_gram ws =
  let values = Sparse.values ws.pattern in
  Array.fill values 0 (Array.length values) 0.0;
  let sc = ws.scaled in
  let sptr = sc.Sparse_rows.ptr and sval = sc.Sparse_rows.value in
  let spos = ws.spos and gslot = ws.gslot in
  for i = 0 to Sparse_rows.rows sc - 1 do
    let t0 = ws.tri_start.(i) in
    if t0 >= 0 then begin
      let len = ws.cap_len.(i) and hi = sptr.(i + 1) - 1 in
      for p = sptr.(i) to hi do
        let a = spos.(p) and vj = sval.(p) in
        (* Slots of pairs (a, b), b ≥ a, start here in row-major order. *)
        let base = t0 + (a * len) - (a * (a - 1) / 2) - a in
        let s = gslot.(base + a) in
        values.(s) <- values.(s) +. (vj *. vj);
        for q = p + 1 to hi do
          let s = gslot.(base + spos.(q)) in
          values.(s) <- values.(s) +. (vj *. sval.(q))
        done
      done
    end
  done

(* Sherman–Morrison–Woodbury on M = M_s + A·Aᵀ, where M_s is the
   sparse factor and the columns of A are the scaled dense rows:
     M⁻¹b = y − U·C⁻¹·(Aᵀy),  y = M_s⁻¹b,  U = M_s⁻¹A,  C = I + AᵀU.
   @raise Cholesky.Not_positive_definite if C is not positive definite. *)
let woodbury_setup ws =
  let k = Array.length ws.dense in
  if k > 0 then begin
    let sc = ws.scaled in
    let sptr = sc.Sparse_rows.ptr
    and scol = sc.Sparse_rows.col
    and sval = sc.Sparse_rows.value in
    Array.iteri
      (fun l r ->
        Vec.fill ws.scatter 0.0;
        for p = sptr.(r) to sptr.(r + 1) - 1 do
          ws.scatter.(scol.(p)) <- sval.(p)
        done;
        ignore (Sparse.solve ~into:ws.u.(l) ws.factor ws.scatter))
      ws.dense;
    for i = 0 to k - 1 do
      for l = 0 to i do
        let v =
          (if i = l then 1.0 else 0.0)
          +. Sparse_rows.row_dot sc ws.dense.(i) ws.u.(l)
        in
        Mat.set ws.capm i l v;
        Mat.set ws.capm l i v
      done
    done;
    ws.capf <- Some (Cholesky.factor ~into:ws.capl ws.capm)
  end

let fall_back ws =
  ws.fallbacks <- ws.fallbacks + 1;
  emit ws
    (Obs.Trace.Kkt_factor
       {
         backend = "dense";
         phase = "fallback";
         n = Sparse_rows.cols ws.g;
         nnz = 0;
       });
  let { gram; chol } = Lazy.force ws.store in
  let mmat = Sparse_rows.gram ~into:gram ws.scaled in
  ws.mode <- Dense_mode (mmat, Cholesky.factor ~max_shift:1e-2 ~into:chol mmat)

let factor ws w ~force_dense =
  scale_rows ws w;
  if force_dense then fall_back ws
  else begin
    fill_gram ws;
    match
      ignore
        (Sparse.factor ~max_shift:1e-2 ~into:ws.factor ws.symbolic ws.pattern);
      woodbury_setup ws
    with
    | exception (Sparse.Not_positive_definite | Cholesky.Not_positive_definite)
      ->
      fall_back ws
    | () ->
      ws.mode <- Sparse_mode;
      emit ws
        (Obs.Trace.Kkt_factor
           {
             backend = "sparse";
             phase = "numeric";
             n = Sparse_rows.cols ws.g;
             nnz = Sparse.factor_nnz ws.symbolic;
           })
  end

(* [out] := M⁻¹·b for the current factorisation; [out] is not [b]. *)
let solve_once ws b out =
  match ws.mode with
  | Dense_mode (_, f) -> Vec.blit (Cholesky.solve f b) out
  | Sparse_mode -> (
    ignore (Sparse.solve ~into:out ws.factor b);
    match ws.capf with
    | Some cf ->
      let wv =
        Cholesky.solve cf
          (Array.map (fun r -> Sparse_rows.row_dot ws.scaled r out) ws.dense)
      in
      Array.iteri (fun l ul -> Vec.axpy (-.wv.(l)) ul out) ws.u
    | None -> ())

(* [out] := M·x, with M·x = M_s·x + Σ aᵢ·(aᵢᵀx) on the sparse path. *)
let apply_once ws x out =
  match ws.mode with
  | Dense_mode (mmat, _) -> Vec.blit (Mat.mul_vec mmat x) out
  | Sparse_mode ->
    ignore (Sparse.mul_vec ~into:out ws.pattern x);
    let sc = ws.scaled in
    let sptr = sc.Sparse_rows.ptr
    and scol = sc.Sparse_rows.col
    and sval = sc.Sparse_rows.value in
    Array.iter
      (fun r ->
        let t = Sparse_rows.row_dot sc r x in
        for p = sptr.(r) to sptr.(r + 1) - 1 do
          let j = scol.(p) in
          out.(j) <- out.(j) +. (sval.(p) *. t)
        done)
      ws.dense

let solve ws w ~bx ~bz ~dx ~dz =
  let tm = ws.tm and rhs = ws.rhs in
  ignore (Cone.apply_inv ~into:tm w bz);
  ignore (Cone.apply_inv ~into:tm w tm);
  ignore (Sparse_rows.mul_tvec ~into:rhs ws.g tm);
  for i = 0 to Array.length rhs - 1 do
    rhs.(i) <- bx.(i) +. rhs.(i)
  done;
  (* Two rounds of iterative refinement, measured against the full
     matrix, recover the digits lost when the factorisation needed a
     diagonal shift near convergence. *)
  solve_once ws rhs dx;
  for _ = 1 to 2 do
    apply_once ws dx ws.ax;
    for i = 0 to Array.length rhs - 1 do
      ws.res.(i) <- rhs.(i) -. ws.ax.(i)
    done;
    solve_once ws ws.res ws.corr;
    Vec.axpy 1.0 ws.corr dx
  done;
  ignore (Sparse_rows.mul_vec ~into:dz ws.g dx);
  for i = 0 to Array.length dz - 1 do
    dz.(i) <- dz.(i) -. bz.(i)
  done;
  ignore (Cone.apply_inv ~into:dz w dz);
  ignore (Cone.apply_inv ~into:dz w dz)
