(* CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) — the checksum
   of gzip and PNG.  Table-driven, one table built at module load.

   This lives at the bottom of the dependency graph so both the trace
   sinks here and the sweep journals in [Durable] frame their lines
   with the one codec below. *)

let table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref (Int32.of_int n) in
         for _ = 0 to 7 do
           c :=
             if Int32.logand !c 1l <> 0l then
               Int32.logxor 0xEDB88320l (Int32.shift_right_logical !c 1)
             else Int32.shift_right_logical !c 1
         done;
         !c))

let update crc s =
  let table = Lazy.force table in
  let crc = ref (Int32.lognot crc) in
  String.iter
    (fun ch ->
      let idx =
        Int32.to_int (Int32.logand (Int32.logxor !crc (Int32.of_int (Char.code ch))) 0xFFl)
      in
      crc := Int32.logxor table.(idx) (Int32.shift_right_logical !crc 8))
    s;
  Int32.lognot !crc

let string s = update 0l s

let hex crc = Printf.sprintf "%08lx" crc

(* Framed lines: "<crc32-hex> <body>\n", the CRC covering the body. *)

let render_line body = hex (string body) ^ " " ^ body ^ "\n"

let body_of_line line =
  if String.length line < 10 || line.[8] <> ' ' then None
  else
    let crc = String.sub line 0 8 in
    let body = String.sub line 9 (String.length line - 9) in
    if String.equal crc (hex (string body)) then Some body else None

let scan_lines content =
  let len = String.length content in
  let rec scan pos acc =
    if pos >= len then List.rev acc
    else
      match String.index_from_opt content pos '\n' with
      | None -> List.rev acc
      | Some nl -> scan (nl + 1) ((pos, String.sub content pos (nl - pos)) :: acc)
  in
  scan 0 []
