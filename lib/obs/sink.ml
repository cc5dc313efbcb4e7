(* Pluggable trace consumers.

   The file sink frames its lines with {!Crc.render_line}, as the sweep
   journal (lib/durable/journal.ml) does: every line is

     <crc32-hex> <body>

   with the CRC covering everything after the single separating space,
   preceded by a header line whose body is "budgetbuf-trace 1".  Unlike
   the journal there is no fsync per record — a trace is diagnostic,
   not durable state — so writes go through a buffered channel and a
   crash can tear the tail, which the reader detects (bad CRC, bad
   JSON or missing newline) and truncates away, exactly like a torn
   journal. *)

let magic = "budgetbuf-trace"
let version = "1"

type t =
  | Null
  | Ring of { capacity : int; q : Trace.t Queue.t; m : Mutex.t }
  | File of {
      path : string;
      oc : out_channel;
      m : Mutex.t;
      mutable closed : bool;
    }

let null = Null

let ring ~capacity =
  if capacity < 1 then invalid_arg "Obs.Sink.ring: capacity must be >= 1";
  Ring { capacity; q = Queue.create (); m = Mutex.create () }

let file path =
  let oc = open_out_gen [ Open_wronly; Open_creat; Open_trunc ] 0o644 path in
  output_string oc (Crc.render_line (magic ^ " " ^ version));
  File { path; oc; m = Mutex.create (); closed = false }

let emit t ev =
  match t with
  | Null -> ()
  | Ring r ->
    Mutex.lock r.m;
    Queue.push ev r.q;
    while Queue.length r.q > r.capacity do
      ignore (Queue.pop r.q)
    done;
    Mutex.unlock r.m
  | File f ->
    Mutex.lock f.m;
    if not f.closed then output_string f.oc (Crc.render_line (Trace.to_json ev));
    Mutex.unlock f.m

let events = function
  | Ring r ->
    Mutex.lock r.m;
    let evs = List.of_seq (Queue.to_seq r.q) in
    Mutex.unlock r.m;
    evs
  | Null | File _ -> []

let path = function File f -> Some f.path | Null | Ring _ -> None

let close = function
  | Null | Ring _ -> ()
  | File f ->
    Mutex.lock f.m;
    if not f.closed then begin
      f.closed <- true;
      close_out f.oc
    end;
    Mutex.unlock f.m

let read_file p =
  match In_channel.with_open_bin p In_channel.input_all with
  | exception Sys_error msg -> Error msg
  | content -> begin
    match List.map snd (Crc.scan_lines content) with
    | [] -> Error (p ^ ": empty or truncated trace header")
    | first :: rest -> begin
      match Crc.body_of_line first with
      | Some body when String.equal body (magic ^ " " ^ version) ->
        (* Stop at the first damaged line: after a torn write nothing
           downstream is trustworthy. *)
        let rec take acc = function
          | [] -> List.rev acc
          | line :: rest -> begin
            match Option.bind (Crc.body_of_line line) Trace.of_json_line with
            | Some ev -> take (ev :: acc) rest
            | None -> List.rev acc
          end
        in
        Ok (take [] rest)
      | Some _ | None ->
        Error (p ^ ": not a budgetbuf trace (bad or corrupt header)")
    end
  end
