(** The admission server's framing: one ['\n']-terminated line per
    frame, in both directions of the client socket and of the worker
    pipes.  The body of each frame is one {!Obs.Json} object
    (docs/serving.md); {!Protocol} and {!Worker} encode and decode it. *)

(** Frame reassembly for arbitrarily chunked byte streams.

    Both ends of the protocol read through a framer, which makes frame
    boundaries a pure function of the byte sequence: however the
    kernel splits the reads — byte at a time, mid-escape, mid-frame —
    the frames delivered are identical.  A trailing chunk without its
    ['\n'] is {e residue}, never a frame: a peer dying mid-line can
    truncate the conversation but cannot mangle a frame.

    Frames are size-bounded: a frame longer than [max_frame] bytes is
    discarded as it streams in and surfaces as exactly one {!Oversized}
    item in sequence, so a hostile or buggy peer cannot make the
    reader buffer an unbounded line.  The server answers [Oversized]
    with a structured [too_large] refusal; the client treats it as a
    transport error. *)
module Framer : sig
  (** One element of the frame sequence: a complete frame's bytes, or
      the marker left where a frame longer than [max_frame] bytes was
      discarded. *)
  type item = Frame of string | Oversized

  type t

  (** The default frame cap, 4 MiB — generous against the largest
      realistic instance texts, small against memory exhaustion. *)
  val default_max_frame : int

  (** [create ?max_frame ()] makes an empty framer.
      @raise Invalid_argument when [max_frame <= 0]. *)
  val create : ?max_frame:int -> unit -> t

  (** [max_frame t] is the cap [t] enforces. *)
  val max_frame : t -> int

  (** [feed t chunk] appends raw bytes from the stream. *)
  val feed : t -> string -> unit

  (** [next t] pops the earliest complete item — the bytes up to the
      next ['\n'], exclusive, with one trailing ['\r'] stripped, or
      {!Oversized} where a too-long frame was dropped — or [None] when
      no complete item is buffered. *)
  val next : t -> item option

  (** [residue t] is the buffered unterminated tail (empty when the
      stream ended cleanly on a frame boundary, and while an oversized
      frame is being discarded). *)
  val residue : t -> string
end

(** [write_line ?step fd line] writes [line ^ "\n"] fully, at most
    [step] bytes per syscall (default: all at once).  Raises
    [Unix.Unix_error] on a broken pipe or socket — callers treat that
    as the peer's death. *)
val write_line : ?step:int -> Unix.file_descr -> string -> unit
