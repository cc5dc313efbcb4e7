type actor = int
type channel = int

type actor_info = { name : string; durations : float array }

type channel_info = {
  src : actor;
  production : int array;
  dst : actor;
  consumption : int array;
  initial : int;
}

(* Id-indexed growable arrays: slots [0 .. n-1] are live. *)
type t = {
  mutable actor_infos : actor_info array;
  mutable nactors : int;
  mutable channel_infos : channel_info array;
  mutable nchannels : int;
}

let create () =
  { actor_infos = [||]; nactors = 0; channel_infos = [||]; nchannels = 0 }

(* [push a n x] stores [x] at slot [n] of [a], doubling [a] when full. *)
let push a n x =
  let a =
    if n < Array.length a then a
    else begin
      let fresh = Array.make (Int.max 8 (2 * n)) x in
      Array.blit a 0 fresh 0 n;
      fresh
    end
  in
  a.(n) <- x;
  a

let add_actor t ~name ~durations =
  if Array.length durations = 0 then
    invalid_arg "Csdf.add_actor: at least one phase required";
  Array.iter
    (fun d ->
      if d < 0.0 || not (Float.is_finite d) then
        invalid_arg "Csdf.add_actor: durations must be finite and >= 0")
    durations;
  let a = t.nactors in
  t.actor_infos <-
    push t.actor_infos a { name; durations = Array.copy durations };
  t.nactors <- a + 1;
  a

let check_actor t a =
  if a < 0 || a >= t.nactors then invalid_arg "Csdf: unknown actor"

let actor_infos t = Array.sub t.actor_infos 0 t.nactors
let channel_infos t = Array.sub t.channel_infos 0 t.nchannels

let phases_of info = Array.length info.durations

let add_channel t ~src ~production ~dst ~consumption ?(initial_tokens = 0) ()
    =
  check_actor t src;
  check_actor t dst;
  if Array.length production <> phases_of t.actor_infos.(src) then
    invalid_arg "Csdf.add_channel: production length <> phases of src";
  if Array.length consumption <> phases_of t.actor_infos.(dst) then
    invalid_arg "Csdf.add_channel: consumption length <> phases of dst";
  let check_rates name rates =
    let sum = ref 0 in
    Array.iter
      (fun r ->
        if r < 0 then
          invalid_arg (Printf.sprintf "Csdf.add_channel: negative %s" name)
        else sum := !sum + r)
      rates;
    if !sum = 0 then
      invalid_arg (Printf.sprintf "Csdf.add_channel: all-zero %s" name)
  in
  check_rates "production" production;
  check_rates "consumption" consumption;
  if initial_tokens < 0 then
    invalid_arg "Csdf.add_channel: initial tokens must be >= 0";
  let c = t.nchannels in
  t.channel_infos <-
    push t.channel_infos c
      {
        src;
        production = Array.copy production;
        dst;
        consumption = Array.copy consumption;
        initial = initial_tokens;
      };
  t.nchannels <- c + 1;
  c

let num_actors t = t.nactors
let actors t = List.init t.nactors Fun.id
let num_channels t = t.nchannels

let actor_name t a =
  check_actor t a;
  t.actor_infos.(a).name

let phases t a =
  check_actor t a;
  phases_of t.actor_infos.(a)

let rec gcd a b = if b = 0 then a else gcd b (a mod b)

let lcm a b = a / gcd a b * b

(* Solve the balance equations over whole phase cycles,
   q(src)·Σproduction = q(dst)·Σconsumption, by propagating rational
   cycle counts over the channels (BFS per connected component), then
   scaling each component to the smallest positive integer vector. *)
let repetition_vector t =
  let n = t.nactors in
  let sum = Array.fold_left ( + ) 0 in
  let adj = Array.make n [] in
  Array.iter
    (fun ch ->
      let p = sum ch.production and c = sum ch.consumption in
      adj.(ch.src) <- (ch.dst, p, c) :: adj.(ch.src);
      adj.(ch.dst) <- (ch.src, c, p) :: adj.(ch.dst))
    (channel_infos t);
  (* q(a) as the reduced fraction num/den; den = 0 while unvisited. *)
  let num = Array.make n 0 and den = Array.make n 0 in
  let components = ref [] and consistent = ref true in
  for root = 0 to n - 1 do
    if den.(root) = 0 then begin
      num.(root) <- 1;
      den.(root) <- 1;
      let members = ref [ root ] in
      let queue = Queue.create () in
      Queue.add root queue;
      while not (Queue.is_empty queue) do
        let a = Queue.take queue in
        List.iter
          (fun (b, rate_a, rate_b) ->
            (* rate_a·q(a) = rate_b·q(b) ⟹ q(b) = q(a)·rate_a/rate_b *)
            let nb = num.(a) * rate_a and db = den.(a) * rate_b in
            if den.(b) = 0 then begin
              let g = gcd nb db in
              num.(b) <- nb / g;
              den.(b) <- db / g;
              members := b :: !members;
              Queue.add b queue
            end
            else if num.(b) * db <> nb * den.(b) then consistent := false)
          adj.(a)
      done;
      components := !members :: !components
    end
  done;
  if not !consistent then
    Error "inconsistent SDF graph: the balance equations have no solution"
  else begin
    let q = Array.make n 0 in
    List.iter
      (fun members ->
        let l = List.fold_left (fun acc a -> lcm acc den.(a)) 1 members in
        List.iter (fun a -> q.(a) <- num.(a) * (l / den.(a))) members;
        let g = List.fold_left (fun acc a -> gcd acc q.(a)) 0 members in
        List.iter (fun a -> q.(a) <- q.(a) / g) members)
      !components;
    Ok
      (fun a ->
        check_actor t a;
        q.(a))
  end

type expansion = {
  srdf : Srdf.t;
  firing : actor -> int -> Srdf.actor;
  repetitions : actor -> int;
}

let floor_div a b = if a >= 0 then a / b else -(((-a) + b - 1) / b)
let emod a b = ((a mod b) + b) mod b

(* Cumulative tokens over the first [k] firings (k may be ≤ 0), given
   the per-phase rate vector.  One full cycle moves [total] tokens. *)
let cumulative rates k =
  let p = Array.length rates in
  let total = Array.fold_left ( + ) 0 rates in
  let cycles = floor_div k p in
  let rest = k - (cycles * p) in
  let partial = ref 0 in
  for i = 0 to rest - 1 do
    partial := !partial + rates.(i)
  done;
  (cycles * total) + !partial

(* Smallest firing index k with cumulative(rates, k) ≥ m.  Monotone in
   k, so locate the cycle by division and the phase by a linear scan. *)
let producing_firing rates m =
  let p = Array.length rates in
  let total = Array.fold_left ( + ) 0 rates in
  (* cumulative(k) ≥ m ⟺ k ≥ k*; search around cycle floor. *)
  let approx_cycles = floor_div (m - total) total in
  let rec search k =
    if cumulative rates k >= m then k else search (k + 1)
  in
  search (approx_cycles * p)

(* The j-th token consumed by firing l of dst was produced by firing k′
   of src, counted across iterations (k′ ≤ 0: an initial token).
   Decomposing k′ into (iteration, firing s) gives the dependency
   s → l and its token count, the iteration distance.  A firing pair
   keeps its smallest distance; pairs come out in hash-table order. *)
let channel_dependencies infos q ch =
  let firings a = q a * phases_of infos.(a) in
  let qa = firings ch.src and qb = firings ch.dst in
  let bests = Hashtbl.create 16 in
  for l = 1 to qb do
    for n_tok = cumulative ch.consumption (l - 1) + 1
        to cumulative ch.consumption l do
      let k' = producing_firing ch.production (n_tok - ch.initial) in
      let s = emod (k' - 1) qa + 1 in
      let delta = (s - k') / qa in
      assert (delta >= 0);
      match Hashtbl.find_opt bests (s, l) with
      | Some d when d <= delta -> ()
      | Some _ | None -> Hashtbl.replace bests (s, l) delta
    done
  done;
  List.rev (Hashtbl.fold (fun (s, l) d acc -> (s, l, d) :: acc) bests [])

let dependencies t q c =
  if c < 0 || c >= t.nchannels then invalid_arg "Csdf: unknown channel";
  channel_dependencies t.actor_infos q t.channel_infos.(c)

let expand ?(serialize = false) t =
  match repetition_vector t with
  | Error _ as e -> e
  | Ok q ->
    let infos = actor_infos t in
    let srdf = Srdf.create () in
    let firings_per_iter a = q a * phases_of infos.(a) in
    let copies =
      Array.mapi
        (fun a info ->
          Array.init (firings_per_iter a) (fun k ->
              let phase = k mod phases_of info in
              Srdf.add_actor srdf
                ~name:(Printf.sprintf "%s#%d.%d" info.name (k + 1) (phase + 1))
                ~duration:info.durations.(phase)))
        infos
    in
    if serialize then
      Array.iter
        (fun arr ->
          let qn = Array.length arr in
          if qn > 1 then
            for k = 0 to qn - 1 do
              (* Chain firing k → k+1, closing the cycle with one token
                 so at most one firing of the actor is in flight. *)
              ignore
                (Srdf.add_edge srdf ~src:arr.(k)
                   ~dst:arr.((k + 1) mod qn)
                   ~tokens:(if k = qn - 1 then 1 else 0))
            done)
        copies;
    Array.iter
      (fun ch ->
        List.iter
          (fun (s, l, tokens) ->
            ignore
              (Srdf.add_edge srdf
                 ~src:copies.(ch.src).(s - 1)
                 ~dst:copies.(ch.dst).(l - 1)
                 ~tokens))
          (channel_dependencies infos q ch))
      (channel_infos t);
    Ok
      {
        srdf;
        firing =
          (fun a k ->
            check_actor t a;
            if k < 1 || k > firings_per_iter a then
              invalid_arg "Csdf.expansion.firing: range"
            else copies.(a).(k - 1));
        repetitions = q;
      }

let iteration_period ?serialize t =
  match expand ?serialize t with
  | Error _ as e -> e
  | Ok { srdf; _ } -> begin
    match Howard.max_cycle_ratio srdf with
    | Analysis.Mcr r -> Ok r
    | Analysis.Acyclic -> Ok 0.0
    | Analysis.Deadlocked ->
      Error "deadlocked CSDF graph: a cycle has too few initial tokens"
  end
