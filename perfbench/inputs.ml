(* Workload inputs, generated from the workload seed with the
   repository's own generators.  The program under test sees only the
   configuration text; the same seed yields byte-identical texts and
   request lists, another seed changes the seeded parts (random chains
   of solve-large and sweep-small, op order and the admit stream). *)

module Gen = Workloads.Gen
module Rng = Workloads.Rng

type instance = { name : string; text : string }

type kind = Solve | Tradeoff | Dse | Tighten

type op = { kind : kind; inst : instance }

let kind_name = function
  | Solve -> "solve"
  | Tradeoff -> "tradeoff"
  | Dse -> "dse"
  | Tighten -> "tighten"

let text cfg = Format.asprintf "%a" Taskgraph.Config.pp cfg

let instance (name, cfg) = { name; text = text cfg }

(* One generator per purpose, so adding a draw to one list never
   shifts another. *)
let rng ~seed purpose =
  Rng.create (Int64.of_int ((seed * 16) + purpose))

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Rng.int rng ~bound:(i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* Multi-job instances keep the WCETs of [budgetbuf generate multijob]
   (generator seed 1) whatever the workload seed: some seeded draws make
   a tradeoff candidate stall through the whole recovery ladder. *)
let multi_job ~jobs ~tasks_per_job =
  Gen.multi_job (Rng.create 1L) ~jobs ~tasks_per_job ~procs:jobs ()

let ops kind insts = List.map (fun inst -> { kind; inst }) insts

let solve_large ~seed =
  let r = rng ~seed 1 in
  let insts =
    List.map instance
      [
        ("chain100", Gen.chain ~n:100 ());
        ("chain300", Gen.chain ~n:300 ());
        ("mesh8", Gen.mesh ~rows:8 ~cols:8 ());
        ("mesh10", Gen.mesh ~rows:10 ~cols:10 ());
        ("tree5", Gen.binary_tree ~depth:5 ());
        ("tree6", Gen.binary_tree ~depth:6 ());
        ("multijob20", multi_job ~jobs:20 ~tasks_per_job:5);
        ("random120", Gen.random_chain (Rng.split r) ~n:120 ());
      ]
  in
  shuffle r (ops Solve insts)

(* Both sweeps on every instance except two pairs where a candidate
   stalls through the whole recovery ladder (dse on ring6, tradeoff on
   car-radio), and chain16, whose tradeoff returns one mapping without
   an exact certificate: ops that fail are not what this workload
   measures.  For the same reason the seed picks three random chains
   from a pool of 16 (generator seeds 1-17 but 5, 2-4 tasks) whose
   sweeps all certify; about one freshly drawn chain in 20 has a
   tradeoff point that does not.  They run tradeoff only: small chains
   in one sweep keep the seed's share of the pass's cost small, and
   keep the median op inside the cluster of tradeoff sweeps instead of
   on the gap between tradeoff and dse costs. *)
let sweep_pool = List.filter (( <> ) 5) (List.init 17 succ)

let sweep_small ~seed =
  let r = rng ~seed 2 in
  let both = [ Tradeoff; Dse ] in
  let app name = (name, List.assoc name Workloads.Apps.all ()) in
  let insts =
    [
      ("t1", Gen.paper_t1 (), both);
      ("t2", Gen.paper_t2 (), both);
      ("chain8", Gen.chain ~n:8 (), both);
      ("splitjoin4", Gen.split_join ~branches:4 (), both);
      ("ring6", Gen.ring ~n:6 ~initial:2 (), [ Tradeoff ]);
      ("multijob3", multi_job ~jobs:3 ~tasks_per_job:3, both);
    ]
    @ List.map
        (fun (name, kinds) ->
          let name, cfg = app name in
          (name, cfg, kinds))
        [
          ("h263-decoder", both);
          ("mp3-playback", both);
          ("modem", both);
          ("car-radio", [ Dse ]);
        ]
    @ List.map
        (fun k ->
          ( Printf.sprintf "random%d" k,
            Gen.random_chain (Rng.create (Int64.of_int k)) ~n:(2 + (k mod 3)) (),
            [ Tradeoff ] ))
        (List.filteri (fun i _ -> i < 3) (shuffle r sweep_pool))
  in
  shuffle r
    (List.concat_map
       (fun (name, cfg, kinds) ->
         let inst = instance (name, cfg) in
         List.map (fun kind -> { kind; inst }) kinds)
       insts)

let tighten_mix ~seed =
  let r = rng ~seed 3 in
  let insts =
    List.map instance
      ([
         ("chain30", Gen.chain ~n:30 ());
         ("chain50", Gen.chain ~n:50 ());
         ("mesh5", Gen.mesh ~rows:5 ~cols:5 ());
         ("mesh6", Gen.mesh ~rows:6 ~cols:6 ());
         ("tree4", Gen.binary_tree ~depth:4 ());
         ("tree5", Gen.binary_tree ~depth:5 ());
         ("splitjoin12", Gen.split_join ~branches:12 ());
         ("multijob6", multi_job ~jobs:6 ~tasks_per_job:3);
         ("multijob8", multi_job ~jobs:8 ~tasks_per_job:3);
       ]
      (* The 15 random chains of the bench tighten mode (generator
         seeds 1-15, 2-6 tasks). *)
      @ List.init 15 (fun i ->
            ( Printf.sprintf "random%02d" (i + 1),
              Gen.random_chain (Rng.create (Int64.of_int (i + 1))) ~n:(2 + (i mod 5)) () )))
  in
  shuffle r (ops Tighten insts)

let one_shot ~seed = function
  | "solve-large" -> Some (solve_large ~seed)
  | "sweep-small" -> Some (sweep_small ~seed)
  | "tighten-mix" -> Some (tighten_mix ~seed)
  | _ -> None

(* The admit stream.  Every instance declares processors with the
   generators' replenishment 40 and the generators' memory m0, and its
   mapping takes under a fifth of any processor (rings, whose feedback
   loop needs up to 80%, are left out), so any two live jobs fit and no
   verdict depends on how the two connections interleave. *)

type request = { instance : int;  (** index of the distinct instance *) config : string }

let fresh_admit_instance r =
  let wcet = 0.5 +. (0.05 *. float_of_int (Rng.int r ~bound:21)) in
  let period = float_of_int (10 + Rng.int r ~bound:7) in
  match Rng.int r ~bound:4 with
  | 0 -> Gen.chain ~n:(6 + Rng.int r ~bound:15) ~wcet ~period ()
  | 1 -> Gen.split_join ~branches:(2 + Rng.int r ~bound:7) ~wcet ~period ()
  | 2 ->
    Gen.mesh ~rows:(2 + Rng.int r ~bound:3) ~cols:(2 + Rng.int r ~bound:3) ~wcet
      ~period ()
  | _ -> Gen.binary_tree ~depth:(2 + Rng.int r ~bound:2) ~wcet ~period ()

(* New instances arrive with probability 0.45; otherwise the request
   repeats one of the last [window] distinct instances, so roughly 55%
   of admits are memo-cache hits.  Misses are medium instances (6-20
   tasks) whose solve dominates the op time: an op list dominated by
   sub-millisecond hits measured mostly thread wake-ups, whose cost
   swung by 2x with the load on neighbouring machines. *)
let admit_stream ~seed ~count =
  let r = rng ~seed 4 in
  let window = 32 in
  let texts = ref [||] and distinct = ref 0 in
  let add cfg =
    if !distinct = Array.length !texts then
      texts := Array.append !texts (Array.make (max 64 !distinct) "");
    !texts.(!distinct) <- text cfg;
    incr distinct;
    !distinct - 1
  in
  Array.init count (fun k ->
      let fresh = k = 0 || Rng.float r ~lo:0.0 ~hi:1.0 < 0.45 in
      let instance =
        if fresh then add (fresh_admit_instance r)
        else
          let span = min window !distinct in
          !distinct - 1 - Rng.int r ~bound:span
      in
      { instance; config = !texts.(instance) })

(* Admitted and released once before the measured phase; never part of
   the stream. *)
let warm_up_config () = text (Gen.paper_t1 ())
