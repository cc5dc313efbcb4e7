(* One measured run of a workload, its end-to-end metrics and the
   result line. *)

type t = {
  attempted : int;
  failed : int;
  failures : string list;  (** reasons, one per failed op *)
  latencies_ms : float list;
  op_ms : (string * float) list;  (** one-shot: each op's mean latency *)
  elapsed_s : float;  (** the measured phase *)
  setups_s : float list;  (** one per set-up, the median is reported *)
  peak_rss_mb : float;
  containers_total : int option;  (** over one pass; [None] for sweeps *)
  objective_total : float option;
  digest : string;
  problems : string list;  (** wrong outputs: any makes the run incorrect *)
}

let completed t = t.attempted - t.failed

let end_to_end t =
  [
    ("ops_per_s", float_of_int (completed t) /. t.elapsed_s);
    ("setup_s", Stats.median_exn t.setups_s);
    ("peak_rss_mb", t.peak_rss_mb);
  ]

let reported_only t =
  List.filter_map
    (fun (k, v) -> Option.map (fun v -> (k, v)) v)
    [
      ("latency_p50_ms", Stats.median t.latencies_ms);
      ("latency_p90_ms", Stats.p90 t.latencies_ms);
      ("failed_share", Some (float_of_int t.failed /. float_of_int (max 1 t.attempted)));
      ("containers_total", Option.map float_of_int t.containers_total);
      ("objective_total", t.objective_total);
    ]

let unit_of name = Option.value ~default:"" (Spec.unit_of name)

let print_table ~workload t =
  Printf.printf "== %s: %d ops (%d failed) in %.3f s measured, %d latency samples\n"
    workload t.attempted t.failed t.elapsed_s (List.length t.latencies_ms);
  List.iter
    (fun (k, v) -> Printf.printf "  %-18s %14.4f %s\n" k v (unit_of k))
    (end_to_end t @ reported_only t);
  if Stats.p90 t.latencies_ms = None then
    Printf.printf "  %-18s %14s (needs 10 samples beyond p90)\n" "latency_p90_ms" "-";
  List.iter (fun (op, ms) -> Printf.printf "  op %-24s %12.3f ms\n" op ms) t.op_ms;
  Printf.printf "  digest %s\n" t.digest;
  List.iteri
    (fun i r -> if i < 5 then Printf.printf "  failed: %s\n" r)
    t.failures;
  List.iter (Printf.printf "  INCORRECT: %s\n") t.problems

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let result_line ~correct ~attempted ~failed metrics =
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun (k, v) ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" k
              (json_number v) (unit_of k))
          metrics))
