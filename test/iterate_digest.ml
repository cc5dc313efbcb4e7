(* A digest of the IEEE bits of a solve's final x, s and z, prefixed by
   its status and iteration count: the bit-level pin the KKT suites
   compare against recorded values.  The solver also calls libm
   ([**]), so a recorded digest holds for the platform it was recorded
   on (x86-64 Linux, glibc). *)

let of_solution (sol : Conic.Socp.solution) =
  let b = Buffer.create 4096 in
  Buffer.add_string b
    (Format.asprintf "%a/%d;" Conic.Socp.pp_status sol.Conic.Socp.status
       sol.Conic.Socp.iterations);
  List.iter
    (fun v ->
      Array.iter
        (fun x ->
          Buffer.add_string b (Printf.sprintf "%Lx," (Int64.bits_of_float x)))
        v;
      Buffer.add_char b '|')
    [ sol.Conic.Socp.x; sol.Conic.Socp.s; sol.Conic.Socp.z ];
  Digest.to_hex (Digest.string (Buffer.contents b))
