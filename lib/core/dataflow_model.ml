(* Kept for the benchmark's per-layer table, which times it; nothing
   in the library calls it. *)
let verify = Certify.violations
