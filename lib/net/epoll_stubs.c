/* Linux epoll bindings for Evloop_epoll (stdlib-only build: no ctypes,
 * no external packages).  File descriptors cross the boundary as the
 * plain ints the Unix library represents them as on POSIX systems.
 *
 * Non-Linux builds compile the #else branch: crdt_epoll_available
 * reports false and the other entry points fail loudly, so
 * Evloop_epoll.loop falls back to select.
 */

#include <caml/mlvalues.h>
#include <caml/alloc.h>
#include <caml/memory.h>
#include <caml/fail.h>
#include <caml/signals.h>

#ifdef __linux__

#include <errno.h>
#include <string.h>
#include <sys/epoll.h>
#include <unistd.h>

CAMLprim value crdt_epoll_available(value unit)
{
  (void)unit;
  return Val_true;
}

CAMLprim value crdt_epoll_create(value unit)
{
  int fd;
  (void)unit;
  fd = epoll_create1(EPOLL_CLOEXEC);
  if (fd < 0) caml_failwith("epoll_create1 failed");
  return Val_int(fd);
}

/* op: 0 = add, 1 = mod, 2 = del; events: bit 0 read, bit 1 write.
 * Returns 0 on success, errno on failure -- the OCaml side decides
 * which failures are benign (idempotent add/remove semantics). */
CAMLprim value crdt_epoll_ctl(value vep, value vop, value vfd, value vevents)
{
  static const int ops[3] = { EPOLL_CTL_ADD, EPOLL_CTL_MOD, EPOLL_CTL_DEL };
  struct epoll_event ev;
  memset(&ev, 0, sizeof ev);
  if (Int_val(vevents) & 1) ev.events |= EPOLLIN;
  if (Int_val(vevents) & 2) ev.events |= EPOLLOUT;
  ev.data.fd = Int_val(vfd);
  if (epoll_ctl(Int_val(vep), ops[Int_val(vop)], Int_val(vfd), &ev) < 0)
    return Val_int(errno ? errno : -1);
  return Val_int(0);
}

/* Fill [vfds] with the ready descriptors and [vrevents] with their
 * event bits (bit 0 readable, bit 1 writable; ERR/HUP surface on both
 * so a dead connection is noticed whichever direction the runtime
 * watches); returns the count.  The wait releases the OCaml runtime
 * lock: a blocked domain must not stall the other domains' GC. */
CAMLprim value crdt_epoll_wait(value vep, value vtimeout_ms, value vfds,
                               value vrevents)
{
  struct epoll_event evs[64];
  int max = Wosize_val(vfds);
  int ep = Int_val(vep);
  int timeout = Int_val(vtimeout_ms);
  int n, i;
  if (max > 64) max = 64;
  caml_enter_blocking_section();
  n = epoll_wait(ep, evs, max, timeout);
  caml_leave_blocking_section();
  if (n < 0) {
    if (errno == EINTR) return Val_int(0);
    caml_failwith("epoll_wait failed");
  }
  for (i = 0; i < n; i++) {
    int bits = 0;
    if (evs[i].events & (EPOLLIN | EPOLLERR | EPOLLHUP)) bits |= 1;
    if (evs[i].events & (EPOLLOUT | EPOLLERR | EPOLLHUP)) bits |= 2;
    Field(vfds, i) = Val_int(evs[i].data.fd);
    Field(vrevents, i) = Val_int(bits);
  }
  return Val_int(n);
}

CAMLprim value crdt_epoll_close(value vep)
{
  close(Int_val(vep));
  return Val_unit;
}

#else /* !__linux__ */

CAMLprim value crdt_epoll_available(value unit)
{
  (void)unit;
  return Val_false;
}

CAMLprim value crdt_epoll_create(value unit)
{
  (void)unit;
  caml_failwith("epoll is unavailable on this platform");
}

CAMLprim value crdt_epoll_ctl(value vep, value vop, value vfd, value vevents)
{
  (void)vep; (void)vop; (void)vfd; (void)vevents;
  caml_failwith("epoll is unavailable on this platform");
}

CAMLprim value crdt_epoll_wait(value vep, value vtimeout_ms, value vfds,
                               value vrevents)
{
  (void)vep; (void)vtimeout_ms; (void)vfds; (void)vrevents;
  caml_failwith("epoll is unavailable on this platform");
}

CAMLprim value crdt_epoll_close(value vep)
{
  (void)vep;
  caml_failwith("epoll is unavailable on this platform");
}

#endif
