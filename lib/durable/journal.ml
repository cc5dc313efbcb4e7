(* Append-only sweep journal.  One line per completed candidate:

     <crc32-hex> done <index> <payload>

   preceded by a header line

     <crc32-hex> budgetbuf-journal 1 <fingerprint>

   Each line's CRC covers everything after the single separating
   space.  Lines are written with one [write] and one [fsync], so a
   crash leaves at most one torn line — at the tail — which loading
   detects (bad CRC or missing newline) and truncates away.  The
   fingerprint pins the journal to one exact sweep: a resume against a
   different config or grid must re-solve, not silently reuse stale
   answers.

   Two opt-in extensions serve the chaos-hardened memo cache:

   - salvage mode ([resume ~salvage:true]): a damaged line in the
     middle of the file no longer drops everything after it.  The
     damaged line is appended to the <path>.quarantine sidecar
     (fsync'd) and the valid entries beyond it are kept; the file is
     compacted to a clean copy via an atomic tmp+rename.  An
     unterminated tail chunk is still silently truncated — it is the
     expected residue of a crash, not data loss.

   - [replace]: rewrites the whole journal with a given entry list
     (fresh header, fresh CRCs) through the same tmp+fsync+rename
     dance, so a crash at any point leaves either the old complete
     file or the new complete file, never a hybrid. *)

module Crc = Obs.Crc

type entry = { index : int; payload : string }
type io_fault = [ `Pass | `Fail | `Corrupt ]

type t = {
  path : string;
  mutable fd : Unix.file_descr;
  mutex : Mutex.t;
  mutable closed : bool;
  entries : entry list;
  salvaged : int;
  fp : string;
  chaos : (unit -> io_fault) option;
}

let version = "1"
let magic = "budgetbuf-journal"

let fingerprint parts =
  (* Length-prefix every part so ["ab"; "c"] and ["a"; "bc"] differ. *)
  Crc.hex
    (List.fold_left
       (fun acc p ->
         Crc.update (Crc.update acc (string_of_int (String.length p) ^ ":")) p)
       0l parts)

let entry_of_body body =
  match String.split_on_char ' ' body with
  | "done" :: idx :: rest -> begin
    match int_of_string_opt idx with
    | Some index when index >= 0 ->
      Some { index; payload = String.concat " " rest }
    | Some _ | None -> None
  end
  | _ -> None

(* Returns the good entries, the byte length of the valid prefix, the
   fingerprint found in the header, and (in salvage mode) the damaged
   interior lines.  Without [salvage], loading stops at the first
   damaged line — everything after a torn write is untrustworthy.
   With it, damaged lines are collected and the valid entries around
   them are all kept. *)
let load ?(salvage = false) content =
  match Crc.scan_lines content with
  | [] -> Error "empty or truncated journal header"
  | (_, first) :: rest -> begin
    match Option.bind (Crc.body_of_line first) (fun body ->
        match String.split_on_char ' ' body with
        | [ m; v; fp ] when String.equal m magic && String.equal v version ->
          Some fp
        | _ -> None)
    with
    | None -> Error "not a budgetbuf journal (bad or corrupt header)"
    | Some fp ->
      let good_len = ref (String.length first + 1) in
      let damaged = ref [] in
      let rec take acc = function
        | [] -> List.rev acc
        | (pos, line) :: rest -> begin
          match Option.bind (Crc.body_of_line line) entry_of_body with
          | Some e ->
            good_len := pos + String.length line + 1;
            take (e :: acc) rest
          | None ->
            if salvage then begin
              (* Quarantine the damaged line and keep reading: the
                 lines beyond it were each individually fsync'd and
                 carry their own CRCs, so they are still trustworthy. *)
              damaged := line :: !damaged;
              take acc rest
            end
            else
              (* First damaged line: everything from here on is dropped —
                 after a torn write nothing downstream is trustworthy. *)
              List.rev acc
        end
      in
      (* Bind before building the tuple: tuple components evaluate
         right-to-left, and [take] must run before [!good_len]. *)
      let entries = take [] rest in
      Ok (entries, !good_len, fp, List.rev !damaged)
  end

let write_fully fd s =
  let len = String.length s in
  let rec go pos =
    if pos < len then go (pos + Unix.write_substring fd s pos (len - pos))
  in
  go 0

let fsync_dir path =
  (* Persist a rename: fsync the containing directory.  Best effort —
     some filesystems refuse directory fsync. *)
  match Unix.openfile (Filename.dirname path) [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | dfd ->
    (try Unix.fsync dfd with Unix.Unix_error _ -> ());
    Unix.close dfd

let tmp_path path = path ^ ".tmp"

let render_all ~fingerprint entries =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Crc.render_line (String.concat " " [ magic; version; fingerprint ]));
  List.iter
    (fun { index; payload } ->
      Buffer.add_string b
        (Crc.render_line (Printf.sprintf "done %d %s" index payload)))
    entries;
  Buffer.contents b

(* Write a complete replacement journal next to [path] and atomically
   swap it in.  A crash before the rename leaves the old file intact
   (plus a stale .tmp that the next open removes); a crash after the
   rename leaves the new file complete. *)
let atomic_rewrite ~fingerprint path entries =
  let tmp = tmp_path path in
  let fd =
    Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  write_fully fd (render_all ~fingerprint entries);
  Unix.fsync fd;
  Unix.close fd;
  Unix.rename tmp path;
  fsync_dir path

(* Append the damaged lines to the sidecar and fsync it: the operator
   keeps the raw bytes the compaction drops. *)
let quarantine path lines =
  let fd =
    Unix.openfile (path ^ ".quarantine")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ]
      0o644
  in
  List.iter (fun line -> write_fully fd (line ^ "\n")) lines;
  Unix.fsync fd;
  Unix.close fd

let resume ?(salvage = false) ?chaos ~fingerprint path =
  (* A stale .tmp is the residue of a crash mid-compaction: the rename
     never happened, so the real journal is intact and the partial
     copy is garbage. *)
  (try Sys.remove (tmp_path path) with Sys_error _ -> ());
  if Sys.file_exists path then begin
    let content = In_channel.with_open_bin path In_channel.input_all in
    match load ~salvage content with
    | Error msg -> Error (Printf.sprintf "resume journal %s: %s" path msg)
    | Ok (entries, good_len, found, damaged) ->
      if not (String.equal found fingerprint) then
        Error
          (Printf.sprintf
             "resume journal %s: fingerprint mismatch — the journal was \
              written by a different configuration or sweep; delete it to \
              start over"
             path)
      else begin
        if damaged <> [] then begin
          (* Compact away the damage so the on-disk file is clean
             again; the sidecar keeps the raw bytes. *)
          quarantine path damaged;
          atomic_rewrite ~fingerprint path entries
        end
        else begin
          let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
          if good_len < String.length content then Unix.ftruncate fd good_len;
          Unix.close fd
        end;
        let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
        ignore (Unix.lseek fd 0 Unix.SEEK_END);
        Ok
          {
            path;
            fd;
            mutex = Mutex.create ();
            closed = false;
            entries;
            salvaged = List.length damaged;
            fp = fingerprint;
            chaos;
          }
      end
  end
  else begin
    match
      Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_EXCL ] 0o644
    with
    | exception Unix.Unix_error (err, _, _) ->
      Error
        (Printf.sprintf "resume journal %s: %s" path (Unix.error_message err))
    | fd ->
      let header =
        Crc.render_line (String.concat " " [ magic; version; fingerprint ])
      in
      write_fully fd header;
      Unix.fsync fd;
      Ok
        {
          path;
          fd;
          mutex = Mutex.create ();
          closed = false;
          entries = [];
          salvaged = 0;
          fp = fingerprint;
          chaos;
        }
  end

let entries t = t.entries
let salvaged t = t.salvaged
let path t = t.path

(* Flip one byte in the middle of the line body so the CRC no longer
   matches: what lands on disk is a well-terminated but damaged line,
   exactly the mid-file corruption salvage mode quarantines. *)
let corrupt_line line =
  let b = Bytes.of_string line in
  let pos = 9 + ((Bytes.length b - 10) / 2) in
  Bytes.set b pos (if Bytes.get b pos = 'x' then 'y' else 'x');
  Bytes.to_string b

let record t ~index ~payload =
  if index < 0 then invalid_arg "Durable.Journal.record: index must be >= 0";
  if String.contains payload '\n' then
    invalid_arg "Durable.Journal.record: payload must not contain newlines";
  let line = Crc.render_line (Printf.sprintf "done %d %s" index payload) in
  Mutex.lock t.mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.mutex)
    (fun () ->
      if t.closed then invalid_arg "Durable.Journal.record: journal closed";
      let line =
        match t.chaos with
        | None -> line
        | Some draw -> begin
          match draw () with
          | `Pass -> line
          | `Fail -> raise (Unix.Unix_error (Unix.EIO, "write", t.path))
          | `Corrupt -> corrupt_line line
        end
      in
      write_fully t.fd line;
      Unix.fsync t.fd)

let replace t ~entries =
  Mutex.lock t.mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.mutex)
    (fun () ->
      if t.closed then invalid_arg "Durable.Journal.replace: journal closed";
      atomic_rewrite ~fingerprint:t.fp t.path entries;
      Unix.close t.fd;
      let fd = Unix.openfile t.path [ Unix.O_WRONLY ] 0o644 in
      ignore (Unix.lseek fd 0 Unix.SEEK_END);
      t.fd <- fd)

let close t =
  Mutex.lock t.mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.mutex)
    (fun () ->
      if not t.closed then begin
        t.closed <- true;
        Unix.close t.fd
      end)
