(** Signal numbers as the operating system counts them.

    OCaml names the signals it knows by negative numbers of its own
    ([Sys.sigquit] is [-9]), and hands those to a [Sys.signal] handler
    and in [Unix.WSIGNALED]; a signal it does not know arrives as the
    OS number itself.  Exit codes (128+n) and crash reports ("signal
    n") want the OS number: this is the one table that renders it. *)

(** [number s] is the Linux number of signal [s] ([Sys.sigquit] is 3,
    [Sys.sigkill] 9); a positive [s] is already an OS number and is
    returned as is. *)
val number : int -> int
