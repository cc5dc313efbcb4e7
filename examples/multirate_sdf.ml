(* Multi-rate dataflow front end: the classic CD-to-DAT sample-rate
   converter (44.1 kHz -> 48 kHz in four polyphase stages), a standard
   SDF benchmark.  The paper's analysis applies to single-rate graphs;
   this example shows the substrate for its announced extension to
   "more dynamic applications": the multi-rate graph is expanded to an
   equivalent single-rate graph on which every analysis of this
   repository (PAS existence, maximum cycle ratio, self-timed
   execution) runs unchanged.

   Run with:  dune exec examples/multirate_sdf.exe *)

module Csdf = Dataflow.Csdf
module Srdf = Dataflow.Srdf
module Analysis = Dataflow.Analysis
module Howard = Dataflow.Howard

let () =
  (* An SDF graph is a one-phase CSDF graph: one duration per actor and
     one rate per channel endpoint. *)
  let t = Csdf.create () in
  (* Firing durations in microseconds (illustrative DSP kernel costs). *)
  let cd = Csdf.add_actor t ~name:"cd" ~durations:[| 2.0 |] in
  let fir1 = Csdf.add_actor t ~name:"fir1" ~durations:[| 6.0 |] in
  let fir2 = Csdf.add_actor t ~name:"fir2" ~durations:[| 12.0 |] in
  let fir3 = Csdf.add_actor t ~name:"fir3" ~durations:[| 24.0 |] in
  let fir4 = Csdf.add_actor t ~name:"fir4" ~durations:[| 8.0 |] in
  let dat = Csdf.add_actor t ~name:"dat" ~durations:[| 1.0 |] in
  let chain =
    [
      (cd, 1, fir1, 1); (fir1, 2, fir2, 3); (fir2, 2, fir3, 7);
      (fir3, 8, fir4, 7); (fir4, 5, dat, 1);
    ]
  in
  List.iter
    (fun (src, production, dst, consumption) ->
      ignore
        (Csdf.add_channel t ~src ~production:[| production |] ~dst
           ~consumption:[| consumption |] ()))
    chain;

  (match Csdf.repetition_vector t with
  | Error e ->
    Format.printf "inconsistent: %s@." e;
    exit 1
  | Ok q ->
    Format.printf "repetition vector (firings per iteration):@.";
    List.iter
      (fun a -> Format.printf "  %-6s %d@." (Csdf.actor_name t a) (q a))
      [ cd; fir1; fir2; fir3; fir4; dat ]);

  (match Csdf.expand t with
  | Error e ->
    Format.printf "expansion failed: %s@." e;
    exit 1
  | Ok { srdf; _ } ->
    Format.printf "@.single-rate expansion: %d actors, %d dependency edges@."
      (Srdf.num_actors srdf) (Srdf.num_edges srdf);
    (match Howard.max_cycle_ratio srdf with
    | Analysis.Acyclic ->
      Format.printf
        "the pure dataflow chain is acyclic: with unbounded buffers and@.\
         unlimited pipelining the converter has no throughput bound@."
    | Analysis.Mcr r -> Format.printf "iteration period %.2f us@." r
    | Analysis.Deadlocked -> Format.printf "deadlocked?!@."));

  (* Sequential actors (one firing in flight per actor) give the real
     iteration bound: max over actors of q(a)·duration(a). *)
  match Csdf.iteration_period ~serialize:true t with
  | Error e ->
    Format.printf "%s@." e;
    exit 1
  | Ok period ->
    Format.printf
      "@.with sequential actors (serialized copies), one iteration@.\
       (147 CD samples -> 160 DAT samples) takes at least %.1f us:@.\
       the bottleneck is fir2 with 98 firings of 12 us = 1176 us@."
      period;
    (* Cross-check against the analytic bottleneck. *)
    assert (Float.abs (period -. 1176.0) < 1e-6)
