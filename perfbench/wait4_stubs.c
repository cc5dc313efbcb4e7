/* wait4(2) for the benchmark: the exit status of one child together
   with that child's own peak resident set, which Unix.waitpid does not
   report. */

#include <errno.h>
#include <sys/resource.h>
#include <sys/types.h>
#include <sys/wait.h>

#include <caml/alloc.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>
#include <caml/signals.h>
#include <caml/unixsupport.h>

/* Returns (code, maxrss_kb): code is the exit code, or -(signal number)
   when the child was killed. */
value perfbench_wait4(value vpid)
{
  CAMLparam1(vpid);
  CAMLlocal1(res);
  int status = 0;
  struct rusage ru;
  pid_t pid = Int_val(vpid), r;
  caml_enter_blocking_section();
  do {
    r = wait4(pid, &status, 0, &ru);
  } while (r < 0 && errno == EINTR);
  caml_leave_blocking_section();
  if (r < 0) uerror("wait4", Nothing);
  res = caml_alloc_tuple(2);
  Store_field(res, 0,
              Val_int(WIFEXITED(status) ? WEXITSTATUS(status)
                                        : -WTERMSIG(status)));
  Store_field(res, 1, Val_long(ru.ru_maxrss));
  CAMLreturn(res);
}
