(* Linux epoll backend for the Evloop seam.  See evloop_epoll.mli. *)

external raw_available : unit -> bool = "crdt_epoll_available"

external raw_create : unit -> Unix.file_descr = "crdt_epoll_create"

external raw_ctl : Unix.file_descr -> int -> Unix.file_descr -> int -> int
  = "crdt_epoll_ctl"

external raw_wait :
  Unix.file_descr -> int -> Unix.file_descr array -> int array -> int
  = "crdt_epoll_wait"

external raw_close : Unix.file_descr -> unit = "crdt_epoll_close"

let available = raw_available

(* ctl ops, mirrored in epoll_stubs.c. *)
let op_add = 0
let op_mod = 1
let op_del = 2

module Epoll : Evloop.BACKEND = struct
  type interest = {
    mutable read : bool;
    mutable write : bool;
    mutable in_kernel : bool;
  }

  (* [interests] mirrors the kernel registration so the idempotency the
     BACKEND contract demands (re-adding a registered fd, removing an
     unknown one, re-asserting the current write interest) costs a hash
     lookup, not a syscall — the same incremental bookkeeping the
     select backend keeps, with the kernel table standing in for the
     cached fd lists.

     An fd whose read and write interest are both off is kept OUT of
     the kernel set ([in_kernel]), not registered with an empty mask:
     epoll reports ERR/HUP regardless of the mask, so a drained
     connection to a dead peer would otherwise turn every wait into an
     immediate return — a busy loop select (which simply omits the fd
     from both lists) never enters.  The runtime notices such deaths on
     its next write, exactly as under select. *)
  type t = {
    ep : Unix.file_descr;
    interests : (Unix.file_descr, interest) Hashtbl.t;
    fds : Unix.file_descr array;  (** reused epoll_wait out-array. *)
    revents : int array;
  }

  let name = "epoll"
  let max_events = 64

  let create () =
    if not (available ()) then
      failwith "the epoll backend is unavailable on this platform";
    {
      ep = raw_create ();
      interests = Hashtbl.create 16;
      fds = Array.make max_events Unix.stdin;
      revents = Array.make max_events 0;
    }

  let bits i = (if i.read then 1 else 0) lor (if i.write then 2 else 0)

  (* Bring the kernel set in line with [i].  MOD falls back to ADD (and
     vice versa): a connection can be closed and its fd number reused
     between our bookkeeping updates, at which point the kernel has
     silently dropped the old registration. *)
  let sync t fd i =
    let b = bits i in
    if b = 0 then begin
      if i.in_kernel then begin
        ignore (raw_ctl t.ep op_del fd 0);
        i.in_kernel <- false
      end
    end
    else if i.in_kernel then begin
      if raw_ctl t.ep op_mod fd b <> 0 then ignore (raw_ctl t.ep op_add fd b)
    end
    else begin
      if raw_ctl t.ep op_add fd b <> 0 then ignore (raw_ctl t.ep op_mod fd b);
      i.in_kernel <- true
    end

  let add t ?(read = true) fd =
    match Hashtbl.find_opt t.interests fd with
    | Some i ->
        if i.read <> read then begin
          i.read <- read;
          sync t fd i
        end
    | None ->
        let i = { read; write = false; in_kernel = false } in
        Hashtbl.replace t.interests fd i;
        sync t fd i

  let remove t fd =
    match Hashtbl.find_opt t.interests fd with
    | None -> ()
    | Some i ->
        Hashtbl.remove t.interests fd;
        (* ENOENT/EBADF are expected: closing an fd already removed it
           from the kernel's epoll set. *)
        if i.in_kernel then ignore (raw_ctl t.ep op_del fd 0)

  let set_write t fd want =
    match Hashtbl.find_opt t.interests fd with
    | None -> ()
    | Some i ->
        if i.write <> want then begin
          i.write <- want;
          sync t fd i
        end

  let wait t ~timeout =
    let ms =
      if timeout < 0. then -1
      else if timeout = 0. then 0
      else max 1 (int_of_float (Float.round (timeout *. 1000.)))
    in
    let n = raw_wait t.ep ms t.fds t.revents in
    let readable = ref [] and writable = ref [] in
    for k = n - 1 downto 0 do
      let fd = t.fds.(k) in
      (* Filter through [interests] for select-equal visibility: epoll
         reports ERR/HUP even on fds whose read and write interest are
         both off (a dialed, drained connection whose peer exited) —
         select would show nothing there, and the runtime notices such
         deaths on its next write anyway. *)
      match Hashtbl.find_opt t.interests fd with
      | None -> ()
      | Some i ->
          let b = t.revents.(k) in
          if i.read && b land 1 <> 0 then readable := fd :: !readable;
          if i.write && b land 2 <> 0 then writable := fd :: !writable
    done;
    (!readable, !writable)

  let close t =
    Hashtbl.reset t.interests;
    raw_close t.ep
end

let loop () =
  if available () then Evloop.make (module Epoll)
  else Evloop.make (module Evloop.Select)
