(* Linux numbering (the generic table of x86 and ARM). *)
let table =
  [
    (Sys.sighup, 1); (Sys.sigint, 2); (Sys.sigquit, 3); (Sys.sigill, 4);
    (Sys.sigtrap, 5); (Sys.sigabrt, 6); (Sys.sigbus, 7); (Sys.sigfpe, 8);
    (Sys.sigkill, 9); (Sys.sigusr1, 10); (Sys.sigsegv, 11);
    (Sys.sigusr2, 12); (Sys.sigpipe, 13); (Sys.sigalrm, 14);
    (Sys.sigterm, 15); (Sys.sigchld, 17); (Sys.sigcont, 18);
    (Sys.sigstop, 19); (Sys.sigtstp, 20); (Sys.sigttin, 21);
    (Sys.sigttou, 22); (Sys.sigurg, 23); (Sys.sigxcpu, 24);
    (Sys.sigxfsz, 25); (Sys.sigvtalrm, 26); (Sys.sigprof, 27);
    (Sys.sigpoll, 29); (Sys.sigsys, 31);
  ]

let number s = Option.value (List.assoc_opt s table) ~default:s
