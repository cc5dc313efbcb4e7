(* Reassembles '\n'-terminated frames (one Obs.Json object each) from
   an arbitrarily chunked byte stream.  Both the server's per-connection reader and the client's
   reply reader run their bytes through one of these, so the frame
   sequence they observe depends only on the byte sequence — never on
   how the kernel happened to split the reads.  An unterminated tail
   is never surfaced as a frame: a peer that dies mid-line leaves
   residue, not a mangled frame.

   Frames are bounded: once the buffered prefix of the current frame
   exceeds [max_frame] bytes the framer stops accumulating, reports one
   [Oversized] item, and discards bytes until the terminating newline.
   The peak memory held per connection is therefore [max_frame] plus
   one read chunk, no matter what the peer sends, and an oversized
   frame costs exactly one item — never a parse error, never an
   unbounded buffer.  Whether the oversized frame arrived in one chunk
   or a thousand, the item sequence is the same. *)
module Framer = struct
  type item = Frame of string | Oversized

  type t = {
    mutable pending : string;
    max_frame : int;
    mutable dropping : bool;
  }

  let default_max_frame = 4 * 1024 * 1024

  let create ?(max_frame = default_max_frame) () =
    if max_frame <= 0 then
      invalid_arg "Serve.Wire.Framer.create: max_frame must be positive";
    { pending = ""; max_frame; dropping = false }

  let max_frame t = t.max_frame

  let feed t chunk =
    if chunk = "" then ()
    else if t.dropping then begin
      match String.index_opt chunk '\n' with
      | None -> ()
      | Some nl ->
        t.dropping <- false;
        t.pending <- String.sub chunk (nl + 1) (String.length chunk - nl - 1)
    end
    else t.pending <- t.pending ^ chunk

  let next t =
    if t.dropping then None
    else
      match String.index_opt t.pending '\n' with
      | None ->
        if String.length t.pending > t.max_frame then begin
          (* the frame under assembly is already too long; discard what
             we have and skip bytes until its newline *)
          t.pending <- "";
          t.dropping <- true;
          Some Oversized
        end
        else None
      | Some nl ->
        let rest =
          String.sub t.pending (nl + 1) (String.length t.pending - nl - 1)
        in
        if nl > t.max_frame then begin
          t.pending <- rest;
          Some Oversized
        end
        else begin
          let line = String.sub t.pending 0 nl in
          t.pending <- rest;
          let line =
            if line <> "" && line.[String.length line - 1] = '\r' then
              String.sub line 0 (String.length line - 1)
            else line
          in
          Some (Frame line)
        end

  let residue t = if t.dropping then "" else t.pending
end
