(** CRC-32 (IEEE 802.3), the checksum of gzip and PNG, and the framed
    line codec built on it.  Trace files ({!Sink}), sweep journals
    ([Durable.Journal]) and the memo cache's key digests all use it. *)

(** [string s] is the CRC-32 of [s].  The classic check value holds:
    [string "123456789" = 0xCBF43926l]. *)
val string : string -> int32

(** [update crc s] extends a running checksum, so
    [update (string a) b = string (a ^ b)]. *)
val update : int32 -> string -> int32

(** [hex crc] is the 8-digit lowercase hex rendering. *)
val hex : int32 -> string

(** {1 Framed lines}

    Every line of a trace file or a journal is [<crc32-hex> <body>\n],
    the CRC covering everything after the single separating space. *)

(** [render_line body] frames [body], trailing newline included. *)
val render_line : string -> string

(** [body_of_line line] is the body of a framed [line] (given without
    its newline).  [None] on any damage: too short, missing separator,
    CRC mismatch. *)
val body_of_line : string -> string option

(** [scan_lines content] is every newline-terminated line of [content]
    with its start offset, newline stripped.  An unterminated tail
    chunk is torn by definition and not returned. *)
val scan_lines : string -> (int * string) list
