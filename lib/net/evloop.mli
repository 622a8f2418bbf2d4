(** Readiness event loop with incremental interest registration.

    The runtime used to rebuild its fd list on every [select] pass; this
    module keeps the registration {e incremental} — an fd is added once,
    its read/write interest toggled as state changes, and the backend
    maintains whatever bookkeeping it needs (cached fd lists for
    [select], a registration table for an epoll-style backend) without
    per-pass reconstruction.

    The interface is deliberately the intersection of [select] and
    [epoll] semantics, so a Linux epoll backend drops in behind
    {!make} without touching the runtime:

    - interest is level-triggered (a readable fd keeps reporting until
      drained — the runtime reads one chunk per wakeup);
    - write interest is a toggle, meant to be on only while a
      connection has queued outbound bytes (edge registration churn is
      cheap: a no-op toggle does not dirty the backend state).

    Two backends exist: the portable [select] backend here (the right
    floor for clusters of ≤ tens of fds) and the Linux [epoll] backend
    in [Evloop_epoll], which drops in behind {!make} and removes the
    O(fds) scan once fd counts grow.  The runtime runs on epoll where
    the platform has it and on select elsewhere
    ([Evloop_epoll.loop]). *)

(** A pluggable readiness backend.  Implementations must tolerate
    idempotent calls: adding a registered fd, removing an unknown one,
    or re-asserting the current write interest are all no-ops. *)
module type BACKEND = sig
  type t

  val name : string
  val create : unit -> t

  val add : t -> ?read:bool -> Unix.file_descr -> unit
  (** Register [fd].  [read] (default [true]) sets the initial read
      interest; write interest always starts off.  Write-only
      connections (the runtime's dialed sockets) register with
      [~read:false]. *)

  val remove : t -> Unix.file_descr -> unit
  (** Forget [fd] entirely.  A closed fd must be removed before the
      next {!wait}, or a [select] backend will fail with [EBADF]. *)

  val set_write : t -> Unix.file_descr -> bool -> unit
  (** Toggle write interest on a registered fd; unknown fds are
      ignored (a connection can die and be removed between the flush
      that queued bytes and the toggle that would have watched it). *)

  val wait :
    t -> timeout:float -> Unix.file_descr list * Unix.file_descr list
  (** Block up to [timeout] seconds; returns [(readable, writable)].
      [EINTR] yields [([], [])]. *)

  val close : t -> unit
  (** Release backend resources (the epoll instance fd; a no-op for
      select).  The loop must not be used afterwards. *)
end

module Select : BACKEND
(** The portable backend: interests live in one table, and the fd lists
    handed to [Unix.select] are cached — rebuilt only when a
    registration actually changed, not once per pass. *)

type t

val make : (module BACKEND) -> t
(** An event loop over an explicit backend (how [Evloop_epoll] plugs
    in without a dependency cycle).  The runtime builds its loop with
    [Evloop_epoll.loop]. *)

val backend_name : t -> string
val add : t -> ?read:bool -> Unix.file_descr -> unit
val remove : t -> Unix.file_descr -> unit
val set_write : t -> Unix.file_descr -> bool -> unit
val wait : t -> timeout:float -> Unix.file_descr list * Unix.file_descr list
val close : t -> unit
