(** Linux epoll backend for the {!Evloop} seam, and the loop the
    runtime runs on: epoll where the platform has it, select where it
    does not.

    The backend keeps select-equal observable behaviour so the runtime
    is byte-identical under either loop:

    - level-triggered registration, mirroring select's semantics (a
      readable fd keeps reporting until drained);
    - an [interests] mirror of the kernel table gives the idempotency
      the BACKEND contract demands without extra syscalls, and filters
      [epoll]'s ERR/HUP reporting down to the fds select would surface;
    - sub-millisecond timeouts round {e up} to 1 ms so a short poll
      never becomes a busy spin.

    On non-Linux platforms the C stubs report {!available}[ () = false]
    and {!loop} falls back to the portable select backend. *)

val available : unit -> bool
(** [true] iff this build carries a working epoll (Linux). *)

module Epoll : Evloop.BACKEND
(** The epoll backend.  [create] fails if {!available} is [false]. *)

val loop : unit -> Evloop.t
(** An event loop over {!Epoll} when {!available}, over
    {!Evloop.Select} otherwise. *)
