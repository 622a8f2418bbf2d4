(** A framed connection over a (nonblocking) socket file descriptor.

    Writing is split into two phases so the runtime can coalesce
    frames: {!stage}/{!stage_value} append a frame to the connection's
    outbound buffer without touching the socket, and {!flush} moves the
    staged bytes out with as few [write(2)] calls as the kernel will
    take.  A short write or [EAGAIN] is not an error — the remainder
    stays queued ({!pending_out} reports how much) and the event loop
    drains it when the fd turns writable.  {!send} is the eager path:
    stage one frame, flush immediately — what the runtime uses for the
    Hello that opens a dialed connection.

    Buffer ownership: the staging buffer and the payload scratch belong
    to the connection and are reused for its whole lifetime; the only
    per-message allocation on the batched path is whatever the codec
    itself builds.  Reading is unchanged: the socket feeds an
    incremental {!Crdt_wire.Frame.feed} and every complete frame is
    surfaced.  Connections are used unidirectionally by the runtime:
    the dialing side writes, the accepting side reads — so a node's
    outbound traffic to peer [j] always travels on the connection it
    dialed to [j]. *)

type t = {
  fd : Unix.file_descr;
  feed : Crdt_wire.Frame.feed;
  scratch : Bytes.t;  (** read chunk. *)
  obuf : Buffer.t;  (** frame staging; drained into [wbuf] by flush. *)
  pbuf : Buffer.t;  (** payload scratch for {!stage_value}. *)
  mutable wbuf : Bytes.t;  (** outbound queue (staged but unwritten). *)
  mutable wpos : int;  (** next byte of [wbuf] to write. *)
  mutable wlen : int;  (** end of valid bytes in [wbuf]. *)
  mutable writes : int;  (** successful [write(2)] calls, cumulative. *)
  mutable alive : bool;
}

let read_chunk = 65536

let create fd =
  (* Nonblocking is what makes a short write recoverable: a slow peer
     yields EAGAIN and a queued remainder instead of a stalled loop. *)
  (try Unix.set_nonblock fd with Unix.Unix_error _ -> ());
  {
    fd;
    feed = Crdt_wire.Frame.feed ();
    scratch = Bytes.create read_chunk;
    obuf = Buffer.create 4096;
    pbuf = Buffer.create 512;
    wbuf = Bytes.create 4096;
    wpos = 0;
    wlen = 0;
    writes = 0;
    alive = true;
  }

let fd t = t.fd
let alive t = t.alive
let writes t = t.writes

let pending_out t = t.wlen - t.wpos + Buffer.length t.obuf

let close t =
  if t.alive then begin
    t.alive <- false;
    try Unix.close t.fd with Unix.Unix_error _ -> ()
  end

(* ------------------------------------------------------------------ *)
(* Staged, coalesced writing                                           *)

let stage t ~kind payload = Crdt_wire.Frame.encode_into t.obuf ~kind payload

(** Stage a frame whose payload is [codec]-encoded [v]; no intermediate
    string is built (the payload goes through the connection's reusable
    scratch only to learn its length prefix). *)
let stage_value t ~kind codec v =
  Crdt_wire.Frame.encode_value_into ~scratch:t.pbuf t.obuf ~kind codec v

(* Make room for [extra] more bytes at [wlen]: slide the unwritten tail
   down first (reclaiming drained space), grow only if still short. *)
let reserve t extra =
  let live = t.wlen - t.wpos in
  if t.wpos > 0 && t.wlen + extra > Bytes.length t.wbuf then begin
    Bytes.blit t.wbuf t.wpos t.wbuf 0 live;
    t.wpos <- 0;
    t.wlen <- live
  end;
  if t.wlen + extra > Bytes.length t.wbuf then begin
    let cap = ref (max 4096 (Bytes.length t.wbuf)) in
    while t.wlen + extra > !cap do
      cap := !cap * 2
    done;
    let grown = Bytes.create !cap in
    Bytes.blit t.wbuf 0 grown 0 t.wlen;
    t.wbuf <- grown
  end

let rec drain t =
  let n = t.wlen - t.wpos in
  if n = 0 then begin
    t.wpos <- 0;
    t.wlen <- 0;
    Ok ()
  end
  else
    match Unix.write t.fd t.wbuf t.wpos n with
    | written ->
        t.writes <- t.writes + 1;
        t.wpos <- t.wpos + written;
        drain t
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        Ok ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> drain t
    | exception Unix.Unix_error (e, _, _) ->
        close t;
        Error (Unix.error_message e)

(** Move the staged frames into the outbound queue and write as much as
    the socket accepts.  [Ok ()] means the connection is healthy —
    bytes may remain queued ({!pending_out}); register the fd for
    writability and call {!flush} again when it fires.  [Error] means
    the connection is dead (closed here); anything still queued is
    discarded with it. *)
let flush t =
  if not t.alive then
    if pending_out t = 0 then Ok ()
    else begin
      Buffer.clear t.obuf;
      t.wpos <- 0;
      t.wlen <- 0;
      Error "connection closed"
    end
  else begin
    let staged = Buffer.length t.obuf in
    if staged > 0 then begin
      reserve t staged;
      Buffer.blit t.obuf 0 t.wbuf t.wlen staged;
      t.wlen <- t.wlen + staged;
      Buffer.clear t.obuf
    end;
    drain t
  end

(** Send one frame eagerly: stage + flush.  On a congested socket the
    remainder is queued rather than raised (the old behavior was a
    [failwith] on any short write); [Error] only on a dead peer. *)
let send t ~kind payload =
  if not t.alive then Error "connection closed"
  else begin
    stage t ~kind payload;
    flush t
  end

(* ------------------------------------------------------------------ *)
(* Reading                                                             *)

(** Read once from the socket (call after the event loop reports the fd
    readable) and return every complete frame now buffered.
    [Ok []] means no complete frame yet; [Error `Closed] is a clean
    peer shutdown; [Error (`Bad e)] is a framing violation — both
    close the connection. *)
let recv t =
  if not t.alive then Error `Closed
  else
    match Unix.read t.fd t.scratch 0 read_chunk with
    | 0 ->
        close t;
        Error `Closed
    | n -> (
        Crdt_wire.Frame.push t.feed (Bytes.sub_string t.scratch 0 n);
        let rec drain acc =
          match Crdt_wire.Frame.pop t.feed with
          | Ok (Some frame) -> drain (frame :: acc)
          | Ok None -> Ok (List.rev acc)
          | Error e ->
              close t;
              Error (`Bad e)
        in
        drain [])
    | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
        close t;
        Error `Closed
    | exception
        Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      ->
        Ok []
