(** Event-loop peer runtime: runs one replica of a {!Crdt_proto}
    protocol over real sockets.

    Each process listens on its own address and dials every peer; a
    dialed connection carries traffic in one direction only (dialer →
    acceptor), so a full link between two nodes is a pair of sockets.
    The first frame on a dialed connection is a [Hello] carrying the
    dialer's node id, which is how the accepting side attributes
    subsequent protocol messages to a source replica.

    The replica itself is a {!Crdt_engine.Driver}: this module only
    moves frames between sockets and the driver, so the apply → tick →
    ship → handle cycle (and all byte accounting) is the same code the
    simulator runs.  Accounting follows the simulator's convention —
    protocol messages are tallied at {e delivery} through the driver's
    trace sink; [Hello]/[Done]/[Mark]/[Digest] control frames are
    free — so a cluster's summed [wire_bytes] is directly comparable to
    a {!Crdt_sim.Runner} total for the same workload.

    {2 Batched data path}

    Outbound traffic is coalesced per peer: the ship phase {e stages}
    every frame bound for a peer into that connection's reusable
    outbound buffer ({!Conn.stage_value} — the message payload is
    encoded straight into it, no intermediate strings) and the staged
    bytes leave in one [write(2)] per peer per loop iteration, so a
    tick's messages, any replies raised while pumping, and a trailing
    control frame (Done, or the lockstep Mark) all travel in the same
    syscall.  Short writes and [EAGAIN] queue the remainder on the
    connection; the event loop watches the fd for writability and
    drains it.  Batching changes only how many syscalls carry the
    bytes, never the bytes.  In lockstep mode it makes the write count
    exact: one Hello per peer, then per round one write carrying the
    round's messages and Mark and one carrying its Digest.

    Everything runs on the calling domain: socket I/O, the codec and
    the Driver state machine.

    {2 Wall-clock mode}

    The loop is an {!Evloop} — epoll where the platform has it
    ({!Evloop_epoll}), the portable select elsewhere — over the
    listening socket, all inbound connections, and any outbound
    connection with queued bytes, with a periodic tick (the protocol's
    synchronization interval): each tick applies the workload
    operations due, runs the driver's tick and stages the outbound
    messages; inbound frames are decoded and delivered through the
    driver as they are read, and their replies are staged and flushed
    with the same pass.

    Replicas stop by mutual agreement rather than a wall clock.  A node
    is {e busy} while it still has operations to apply or its CRDT state
    changed since the last tick (the driver's dirty bit, fed by a
    state-equality check on every delivery); chatter alone — protocols
    like state-based or scuttlebutt ship messages every interval forever
    — does not count, which is what lets every registered protocol
    terminate here.  After [quiet_ticks] consecutive non-busy ticks a
    node broadcasts [Done] but keeps serving; it exits once it is quiet
    {e and} has received [Done] from every peer.  Send failures after a
    peer's [Done] are expected (the peer may already have exited) and
    ignored.  [max_ticks] bounds the run as a failsafe.

    {2 Lockstep mode}

    With [lockstep] set, ticks are driven by {e round barriers} instead
    of the clock, making a socket cluster reproduce the simulator's
    round structure exactly.  Per round [r], a node ships the replies
    buffered from round [r-1], applies the round's operations, runs the
    driver tick, then broadcasts a [Mark r] frame: since each TCP
    connection is FIFO, a peer that has seen [Mark r] on a connection
    has necessarily seen every round-[r] message sent on it.  Messages
    arriving on a connection are tagged with the number of marks seen so
    far on it, which is exactly their round.  Once marks for round [r]
    are in from every peer, the round's messages are delivered (replies
    buffered for round [r+1]) and the node broadcasts a [Digest r] frame
    carrying [(ops_done, digest-of-state)]; when digests for round [r]
    are in from every peer, everyone decides identically: stop iff all
    replicas are done generating operations and all digests agree.
    Digest exchange is itself a barrier, so a peer can run at most one
    round ahead, and the message/mark tagging above stays unambiguous.

    For protocols whose handlers send no replies (the delta family
    without acks, state-based), a lockstep run is message-for-message
    identical to the simulator on the same workload — the basis of the
    sim-vs-socket cross-check in the test suite. *)

module Trace = Crdt_engine.Trace

(* Frame kinds on the wire (the Frame layer's dispatch byte). *)
let kind_hello = 0
let kind_message = 1
let kind_done = 2
let kind_mark = 3
let kind_digest = 4

(** Why the serve loop stopped — reported structurally so kill-restart
    tests and benches can assert the exact cause from the metrics
    JSON. *)
type stop_reason =
  | Agreement  (** mutual Done / lockstep digest unanimity. *)
  | Max_ticks  (** the tick-count failsafe fired. *)
  | Max_wall  (** the wall-clock failsafe fired. *)
  | Signal of int  (** SIGTERM/SIGINT-initiated graceful shutdown. *)

let stop_reason_name = function
  | Agreement -> "clean"
  | Max_ticks -> "max_ticks"
  | Max_wall -> "wall_s"
  | Signal _ -> "signal"

type config = {
  id : int;  (** this replica's node id. *)
  listen : Addr.t;
  peers : (int * Addr.t) list;  (** peer node id ↦ its listen address. *)
  total : int;  (** total replica count (for [P.init]). *)
  tick_ms : int;  (** synchronization interval (wall-clock mode). *)
  ops_ticks : int;  (** ticks during which operations are generated. *)
  quiet_ticks : int;  (** quiet ticks required before announcing Done. *)
  max_ticks : int;  (** hard bound on the run. *)
  max_wall_s : float;
      (** hard wall-clock bound on a wall-clock-mode run; [0.] means
          unbounded.  A backstop for free-running benches: with ticks
          paced down while a node waits for its peers' Dones, a crashed
          peer would otherwise take ages to exhaust [max_ticks]. *)
  dial_timeout_s : float;  (** how long to retry dialing each peer. *)
  lockstep : bool;  (** round-barrier mode instead of wall-clock ticks. *)
  verbose : bool;
}

let default_config ~id ~listen ~peers ~total =
  {
    id;
    listen;
    peers;
    total;
    tick_ms = 20;
    ops_ticks = 0;
    quiet_ticks = 5;
    max_ticks = 5000;
    max_wall_s = 0.;
    dial_timeout_s = 10.;
    lockstep = false;
    verbose = false;
  }

(* Growable sample store for per-tick latencies. *)
type samples = { mutable buf : float array; mutable count : int }

let samples () = { buf = Array.make 256 0.; count = 0 }

let add_sample s x =
  if s.count = Array.length s.buf then begin
    let grown = Array.make (2 * s.count) 0. in
    Array.blit s.buf 0 grown 0 s.count;
    s.buf <- grown
  end;
  s.buf.(s.count) <- x;
  s.count <- s.count + 1

let percentile s p =
  if s.count = 0 then 0.
  else begin
    let sorted = Array.sub s.buf 0 s.count in
    Array.sort compare sorted;
    sorted.(min (s.count - 1) (s.count * p / 100))
  end

let id_payload id =
  Crdt_wire.Codec.encode_to_string Crdt_wire.Codec.varint id

(* Lockstep digest payload: round, (done generating ops, state digest). *)
let digest_codec =
  Crdt_wire.Codec.(pair varint (pair bool string))

module Make (P : Crdt_proto.Protocol_intf.PROTOCOL) = struct
  module D = Crdt_engine.Driver.Make (P)

  type result = {
    state : P.crdt;
    ticks : int;  (** ticks (or lockstep rounds) executed. *)
    counters : Trace.counters;
        (** the run's tallies, same accounting as the simulator's
            per-round records: received protocol messages with their
            payload/metadata/wire costs, plus the operations applied and
            the final memory sizes. *)
    writes : int;  (** successful [write(2)] calls over the whole run. *)
    wall_s : float;  (** wall-clock duration of the serve loop. *)
    tick_p99_us : float;
        (** 99th-percentile duration of a wall-clock tick (apply +
            driver tick + ship + flush), in microseconds; 0 in
            lockstep mode (rounds there are barrier-, not work-,
            bound). *)
    backend : string;
        (** the readiness backend that ran: "epoll" where the
            platform has it, "select" elsewhere. *)
    clean : bool;
        (** whether the run terminated by agreement (mutual [Done] /
            digest unanimity) rather than a failsafe or a signal. *)
    stop : stop_reason;  (** the structured version of [clean]. *)
  }

  type inbound = {
    conn : Conn.t;
    peer : int option ref;  (** learned from the Hello frame. *)
    mutable marks : int;  (** lockstep: mark frames seen on this conn. *)
  }

  type state = {
    cfg : config;
    drv : D.t;
    loop : Evloop.t;
    listener : Unix.file_descr;
    out : (int, Conn.t) Hashtbl.t;  (** peer id ↦ dialed connection. *)
    mutable inbound : inbound list;
        (** accepted connections; pruned when a peer closes. *)
    peer_done : (int, unit) Hashtbl.t;
    tick_times : samples;  (** wall-clock per-tick durations, seconds. *)
    rng : Random.State.t;  (** dial-backoff jitter only. *)
    mutable quiet : int;
    mutable done_sent : bool;
    sig_stop : int option ref;
        (** set by the SIGTERM/SIGINT handler; checked at tick/round
            boundaries. *)
    (* Wall-clock dead-peer bookkeeping: a failed send buries the
       connection and schedules redials with capped backoff, so a peer
       that was kill -9'd and restarted from its data dir is re-linked
       (both directions: it re-dials us on boot, we re-dial it here). *)
    mutable to_bury : int list;
        (** peers whose outbound connection failed mid-iteration;
            swept by [bury] outside the iteration. *)
    dead : (int, float * float) Hashtbl.t;
        (** peer id ↦ (next redial attempt time, current backoff). *)
    (* Lockstep bookkeeping. *)
    msgq : (int, (int * string) list ref) Hashtbl.t;
        (** round ↦ (src, undecoded payload) in arrival order. *)
    marks_of : (int, int) Hashtbl.t;  (** peer id ↦ marks received. *)
    digests : (int * int, bool * string) Hashtbl.t;
        (** (round, peer id) ↦ its (ops_done, digest). *)
    mutable pending_out : (int * P.message) list;
        (** lockstep replies buffered for the next round, reversed. *)
  }

  let log st fmt =
    if st.cfg.verbose then
      Printf.eprintf ("node %d: " ^^ fmt ^^ "\n%!") st.cfg.id
    else Printf.ifprintf stderr fmt

  (* The part of a dial after connect(2), shared by the start-up dial
     and the redial: say Hello, register the fd with the event loop and
     record the link to peer [j].  TCP connections disable Nagle: the
     delta protocols emit small frames whose delivery the default
     coalescing would delay a full RTT-or-timer.  A failed Hello closes
     the connection and returns the error. *)
  let link st j addr fd =
    (match addr with
    | Addr.Tcp _ -> Unix.setsockopt fd Unix.TCP_NODELAY true
    | Addr.Unix_sock _ -> ());
    let conn = Conn.create fd in
    match Conn.send conn ~kind:kind_hello (id_payload st.cfg.id) with
    | Error _ as e ->
        Conn.close conn;
        e
    | Ok () ->
        Evloop.add st.loop ~read:false (Conn.fd conn);
        Evloop.set_write st.loop (Conn.fd conn) (Conn.pending_out conn > 0);
        Hashtbl.replace st.out j conn;
        Ok ()

  (* Dial with exponential backoff + jitter (capped), so a cluster
     starting out of order waits instead of hammering connect(2) in a
     busy loop. *)
  let dial st (j, addr) =
    let deadline = Unix.gettimeofday () +. st.cfg.dial_timeout_s in
    let rec attempt delay =
      let fd = Unix.socket (Addr.domain addr) Unix.SOCK_STREAM 0 in
      match Unix.connect fd (Addr.to_sockaddr addr) with
      | () -> fd
      | exception Unix.Unix_error ((ECONNREFUSED | ENOENT | ETIMEDOUT), _, _)
        when Unix.gettimeofday () < deadline ->
          (try Unix.close fd with Unix.Unix_error _ -> ());
          let jittered = delay *. (0.5 +. Random.State.float st.rng 0.5) in
          let remaining = deadline -. Unix.gettimeofday () in
          Unix.sleepf (Float.max 0. (Float.min jittered remaining));
          attempt (Float.min 0.64 (delay *. 2.))
      | exception e ->
          (try Unix.close fd with Unix.Unix_error _ -> ());
          raise e
    in
    match link st j addr (attempt 0.01) with
    | Ok () -> log st "connected to peer %d at %s" j (Addr.to_string addr)
    | Error msg -> failwith (Printf.sprintf "hello to peer %d failed: %s" j msg)

  (* Flush a peer's staged/queued bytes and keep the event loop's write
     interest in sync with what remains.  In wall-clock mode a dead
     connection is the expected shutdown race — a peer exits once it is
     quiet and has everyone's Done, and its own Done may still be deep
     in our unread inbound backlog when our next write to it breaks; the
     Done arrives on the {e inbound} connection regardless, so we log
     and keep serving (a peer that truly crashed never sends Done and
     the run ends unclean at [max_ticks]).  In lockstep mode the round
     barriers mean no peer can be legitimately gone mid-run, so a write
     failure is a hard error there. *)
  let flush_peer ?(ignore_dead = false) st j conn =
    match Conn.flush conn with
    | Ok () ->
        Evloop.set_write st.loop (Conn.fd conn) (Conn.pending_out conn > 0)
    | Error m ->
        Evloop.remove st.loop (Conn.fd conn);
        if st.cfg.lockstep then
          if ignore_dead || Hashtbl.mem st.peer_done j then
            log st "send to peer %d failed (%s); ignored" j m
          else failwith (Printf.sprintf "send to peer %d failed: %s" j m)
        else begin
          (* Wall-clock mode: the peer may be mid-restart — bury the
             connection and let the redial machinery re-link.  Deferred
             to [bury]: this path runs inside Hashtbl.iter over
             [st.out]. *)
          log st "send to peer %d failed (%s); scheduling redial" j m;
          st.to_bury <- j :: st.to_bury
        end

  (* Ship one protocol message to [dest]: stage it on the peer's
     connection; the loop flushes once per pass. *)
  let ship st dest msg =
    match Hashtbl.find_opt st.out dest with
    | None ->
        if st.cfg.lockstep then
          failwith (Printf.sprintf "no connection to peer %d" dest)
        else
          (* The peer is down (buried, awaiting redial).  Dropping is
             safe in wall-clock mode: every registered protocol either
             retries by design or runs an explicit recovery exchange
             once the restarted peer dials back in. *)
          log st "dropping message to dead peer %d" dest
    | Some conn -> Conn.stage_value conn ~kind:kind_message P.message_codec msg

  let flush_all st = Hashtbl.iter (fun j conn -> flush_peer st j conn) st.out

  (* The control frame is staged behind any protocol messages already
     staged this pass, so the FIFO order — and lockstep's mark-counting
     round attribution — holds on every connection. *)
  let broadcast st ~kind payload ~ignore_dead =
    Hashtbl.iter
      (fun j conn ->
        Conn.stage conn ~kind payload;
        flush_peer ~ignore_dead st j conn)
      st.out

  (* Sweep connections whose sends failed this pass (wall-clock mode):
     close them, drop them from the outbound table and schedule the
     first redial attempt. *)
  let bury st =
    List.iter
      (fun j ->
        match Hashtbl.find_opt st.out j with
        | None -> ()
        | Some conn ->
            Conn.close conn;
            Hashtbl.remove st.out j;
            Hashtbl.replace st.dead j (Unix.gettimeofday () +. 0.05, 0.05))
      st.to_bury;
    st.to_bury <- []

  (* One non-blocking-ish redial attempt per due dead peer.  On
     success the link is fresh: the peer's pre-death Done (if any) no
     longer stands for its current incarnation, and our own Done — if
     already sent — never reached the new process, so both are reset
     and re-earned (Done is idempotent on the receiving side). *)
  let try_redial st j addr =
    let fd = Unix.socket (Addr.domain addr) Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Addr.to_sockaddr addr) with
    | exception Unix.Unix_error _ ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        false
    | () -> (
        match link st j addr fd with
        | Error _ -> false
        | Ok () ->
            Hashtbl.remove st.peer_done j;
            st.done_sent <- false;
            st.quiet <- 0;
            log st "re-connected to peer %d" j;
            true)

  let redial_pass st =
    bury st;
    if Hashtbl.length st.dead > 0 then begin
      let now = Unix.gettimeofday () in
      let due =
        Hashtbl.fold
          (fun j (at, delay) acc -> if at <= now then (j, delay) :: acc else acc)
          st.dead []
      in
      List.iter
        (fun (j, delay) ->
          match List.assoc_opt j st.cfg.peers with
          | None -> Hashtbl.remove st.dead j
          | Some addr ->
              if try_redial st j addr then Hashtbl.remove st.dead j
              else
                let delay = Float.min 1.0 (delay *. 2.) in
                let jitter = 0.75 +. Random.State.float st.rng 0.5 in
                Hashtbl.replace st.dead j
                  (Unix.gettimeofday () +. (delay *. jitter), delay))
        due
    end

  let decode_message ~src payload =
    match Crdt_wire.Codec.decode_string P.message_codec payload with
    | Ok msg -> msg
    | Error e ->
        failwith
          (Printf.sprintf "bad message from peer %d: %s" src
             (Crdt_wire.Codec.error_to_string e))

  let decode_id payload =
    match Crdt_wire.Codec.decode_string Crdt_wire.Codec.varint payload with
    | Ok id -> id
    | Error e ->
        failwith ("bad peer id payload: " ^ Crdt_wire.Codec.error_to_string e)

  let src_of ib =
    match !(ib.peer) with
    | Some src -> src
    | None -> failwith "protocol frame before Hello"

  (* Wall-clock frame dispatch: messages go straight through the driver,
     replies ship immediately.  [tick] is the current tick number, used
     as the trace round. *)
  let handle_frame_wallclock st ~tick ib (kind, payload) =
    if kind = kind_hello then begin
      let j = decode_id payload in
      ib.peer := Some j;
      (* A Hello announces a fresh process incarnation dialing in: a
         Done recorded for this peer belongs to its previous life, and
         our own Done (if announced) never reached the new process —
         reset both so they are re-earned.  At initial startup this is
         a no-op (no Done exists yet). *)
      Hashtbl.remove st.peer_done j;
      st.done_sent <- false
    end
    else if kind = kind_done then begin
      let j = decode_id payload in
      log st "peer %d done" j;
      Hashtbl.replace st.peer_done j ()
    end
    else if kind = kind_message then begin
      let src = src_of ib in
      D.deliver st.drv ~round:tick ~src
        ~wire_bytes:
          (Crdt_wire.Frame.framed_size ~payload_len:(String.length payload))
        ~emit:(fun ~dest m -> ship st dest m)
        (decode_message ~src payload)
    end
    else failwith (Printf.sprintf "unknown frame kind %d" kind)

  (* Lockstep frame dispatch: messages are queued under the round the
     connection's mark count implies; marks and digests update the
     barrier bookkeeping.  Nothing is delivered here — the round loop
     drains the queue once the mark barrier is complete. *)
  let handle_frame_lockstep st ib (kind, payload) =
    if kind = kind_hello then ib.peer := Some (decode_id payload)
    else if kind = kind_message then begin
      let src = src_of ib in
      let q =
        match Hashtbl.find_opt st.msgq ib.marks with
        | Some q -> q
        | None ->
            let q = ref [] in
            Hashtbl.replace st.msgq ib.marks q;
            q
      in
      q := (src, payload) :: !q
    end
    else if kind = kind_mark then begin
      let r = decode_id payload in
      if r <> ib.marks then
        failwith
          (Printf.sprintf "out-of-order mark: got round %d, expected %d" r
             ib.marks);
      ib.marks <- ib.marks + 1;
      let src = src_of ib in
      Hashtbl.replace st.marks_of src ib.marks
    end
    else if kind = kind_digest then begin
      let src = src_of ib in
      match Crdt_wire.Codec.decode_string digest_codec payload with
      | Ok (r, d) -> Hashtbl.replace st.digests (r, src) d
      | Error e ->
          failwith
            (Printf.sprintf "bad digest from peer %d: %s" src
               (Crdt_wire.Codec.error_to_string e))
    end
    else if kind = kind_done then ()
    else failwith (Printf.sprintf "unknown frame kind %d" kind)

  (* One event-loop pass: accept new connections, read every readable
     inbound connection and dispatch its frames as they arrive, drain
     outbound connections whose fds turned writable, then prune
     connections the peers closed.  Returns whether any frame was
     processed. *)
  let pump st ~timeout ~dispatch =
    let readable, writable = Evloop.wait st.loop ~timeout in
    let progressed = ref false in
    List.iter
      (fun fd ->
        if fd == st.listener then begin
          let peer_fd, _ = Unix.accept st.listener in
          (match st.cfg.listen with
          | Addr.Tcp _ -> Unix.setsockopt peer_fd Unix.TCP_NODELAY true
          | Addr.Unix_sock _ -> ());
          let conn = Conn.create peer_fd in
          Evloop.add st.loop ~read:true (Conn.fd conn);
          st.inbound <- { conn; peer = ref None; marks = 0 } :: st.inbound
        end
        else
          match
            List.find_opt (fun ib -> Conn.fd ib.conn == fd) st.inbound
          with
          | Some ib -> (
              match Conn.recv ib.conn with
              | Ok frames ->
                  List.iter
                    (fun f ->
                      progressed := true;
                      dispatch ib f)
                    frames
              | Error `Closed ->
                  (* Peers close their dialed connections when they
                     exit.  [recv] closed the fd: unregister it now, not
                     at the prune below — an accept later in this pass
                     may be handed the same fd number. *)
                  Evloop.remove st.loop fd;
                  log st "inbound connection closed"
              | Error (`Bad e) ->
                  failwith
                    ("framing error: " ^ Crdt_wire.Codec.error_to_string e))
          | None -> ())
      readable;
    (* Outbound fds show up here only while a connection has queued
       bytes (EAGAIN or a short write earlier); drain them now. *)
    List.iter
      (fun fd ->
        Hashtbl.iter
          (fun j conn -> if Conn.fd conn == fd then flush_peer st j conn)
          st.out)
      writable;
    if List.exists (fun ib -> not (Conn.alive ib.conn)) st.inbound then
      st.inbound <- List.filter (fun ib -> Conn.alive ib.conn) st.inbound;
    !progressed

  let finished st =
    st.done_sent
    && st.quiet >= st.cfg.quiet_ticks
    && List.for_all (fun (j, _) -> Hashtbl.mem st.peer_done j) st.cfg.peers

  (* Wall-clock tick: operations, driver tick (ships directly), then the
     quiescence accounting on the driver's dirty bit. *)
  let tick_wallclock st ~n ~ops =
    if n < st.cfg.ops_ticks then
      ignore (D.apply st.drv (ops ~tick:n (D.state st.drv)));
    D.tick st.drv ~round:n ~emit:(fun ~dest m -> ship st dest m);
    (* Durability point: everything applied or delivered since the last
       tick reaches the store (when one is attached) before this tick's
       quiescence/Done decisions. *)
    D.sync_store st.drv;
    let busy = n < st.cfg.ops_ticks || D.dirty st.drv in
    D.clear_dirty st.drv;
    st.quiet <- (if busy then 0 else st.quiet + 1);
    if (not st.done_sent) && st.quiet >= st.cfg.quiet_ticks then begin
      st.done_sent <- true;
      log st "quiet for %d ticks; announcing done" st.quiet;
      broadcast st ~kind:kind_done (id_payload st.cfg.id) ~ignore_dead:true
    end

  let serve_wallclock st ~ops =
    let tick_s = float_of_int st.cfg.tick_ms /. 1000. in
    let t_begin = Unix.gettimeofday () in
    let next_tick = ref (t_begin +. tick_s) in
    let n = ref 0 in
    let result = ref None in
    while !result = None do
      (match !(st.sig_stop) with
      | Some s -> result := Some (Signal s)
      | None -> ());
      let timeout =
        let t = Float.max 0. (!next_tick -. Unix.gettimeofday ()) in
        (* Free-running nodes (tick_ms = 0) that have announced Done and
           are only waiting for their peers' Dones must not keep spinning
           at full speed: the tick-rate digest flood starves a slower
           peer of the cycles it needs to go quiet, and the waiter burns
           through its own max_ticks budget in well under a second.
           Pace the wait instead — pump still wakes immediately on
           traffic, and a tick every couple of milliseconds is plenty to
           keep soliciting anything a not-yet-done peer produces. *)
        if t = 0. && st.done_sent && st.quiet >= st.cfg.quiet_ticks then 0.002
        else t
      in
      ignore
        (pump st ~timeout ~dispatch:(handle_frame_wallclock st ~tick:!n));
      redial_pass st;
      let now = Unix.gettimeofday () in
      if now >= !next_tick then begin
        (* The tick and everything it staged — messages, replies raised
           while pumping, a Done broadcast — leave in one flush: at most
           one write(2) per peer for the whole pass. *)
        let t0 = Unix.gettimeofday () in
        tick_wallclock st ~n:!n ~ops;
        flush_all st;
        add_sample st.tick_times (Unix.gettimeofday () -. t0);
        incr n;
        (* Catch up at most one interval: after a stall (a long select
           burst, a debugger pause) the old [+. tick_s] accumulation
           would fire a burst of zero-delay ticks, each eating into the
           quiet count; resynchronize to the clock instead. *)
        let due = !next_tick +. tick_s in
        next_tick := (if due < now then now +. tick_s else due);
        if !result = None then
          if finished st then result := Some Agreement
          else if !n >= st.cfg.max_ticks then begin
            Printf.eprintf
              "node %d: max_ticks (%d) reached before shutdown\n%!" st.cfg.id
              st.cfg.max_ticks;
            result := Some Max_ticks
          end
          else if st.cfg.max_wall_s > 0. && now -. t_begin > st.cfg.max_wall_s
          then begin
            Printf.eprintf
              "node %d: max_wall_s (%.0fs) reached before shutdown\n%!"
              st.cfg.id st.cfg.max_wall_s;
            result := Some Max_wall
          end
      end
      else
        (* No tick due: replies staged while pumping still leave this
           pass, coalesced per peer. *)
        flush_all st
    done;
    (Option.get !result, !n)

  (* Lockstep helpers: block on the select loop until [cond] holds,
     failing loudly if the cluster stops making progress. *)
  let lockstep_wait st ~what ~cond =
    let stall_s = 30. in
    let last_progress = ref (Unix.gettimeofday ()) in
    while not (cond ()) do
      if pump st ~timeout:1.0 ~dispatch:(handle_frame_lockstep st) then
        last_progress := Unix.gettimeofday ()
      else if Unix.gettimeofday () -. !last_progress > stall_s then
        failwith
          (Printf.sprintf "lockstep stalled for %.0fs waiting for %s" stall_s
             what)
    done

  let serve_lockstep st ~digest ~ops =
    let peer_ids = List.map fst st.cfg.peers in
    let r = ref 0 in
    let result = ref None in
    while !result = None do
      (match !(st.sig_stop) with
      | Some s -> result := Some (Signal s)
      | None -> ());
      let round = !r in
      (* Replies buffered while waiting on the previous round's barrier
         belong to this round's wave.  The whole wave — replies, tick
         messages, and the Mark that bounds it — is staged and leaves in
         the broadcast's flush, one write per peer, with FIFO order (and
         hence the mark-counting round attribution) intact. *)
      List.iter (fun (dest, m) -> ship st dest m) (List.rev st.pending_out);
      st.pending_out <- [];
      if round < st.cfg.ops_ticks then
        ignore (D.apply st.drv (ops ~tick:round (D.state st.drv)));
      D.tick st.drv ~round ~emit:(fun ~dest m -> ship st dest m);
      broadcast st ~kind:kind_mark (id_payload round) ~ignore_dead:false;
      lockstep_wait st
        ~what:(Printf.sprintf "round %d marks" round)
        ~cond:(fun () ->
          List.for_all
            (fun j ->
              match Hashtbl.find_opt st.marks_of j with
              | Some m -> m > round
              | None -> false)
            peer_ids);
      (* The mark barrier bounds the wave: every round-[round] message
         is queued.  Deliver in arrival order; replies wait for the next
         round. *)
      (match Hashtbl.find_opt st.msgq round with
      | None -> ()
      | Some q ->
          Hashtbl.remove st.msgq round;
          List.iter
            (fun (src, payload) ->
              D.deliver st.drv ~round ~src
                ~wire_bytes:
                  (Crdt_wire.Frame.framed_size
                     ~payload_len:(String.length payload))
                ~emit:(fun ~dest m ->
                  st.pending_out <- (dest, m) :: st.pending_out)
                (decode_message ~src payload))
            (List.rev !q));
      (* Round durability point, mirroring the wall-clock tick's. *)
      D.sync_store st.drv;
      let ops_done = round + 1 >= st.cfg.ops_ticks in
      let my_digest = digest (D.state st.drv) in
      broadcast st ~kind:kind_digest
        (Crdt_wire.Codec.encode_to_string digest_codec
           (round, (ops_done, my_digest)))
        ~ignore_dead:false;
      lockstep_wait st
        ~what:(Printf.sprintf "round %d digests" round)
        ~cond:(fun () ->
          List.for_all
            (fun j -> Hashtbl.mem st.digests (round, j))
            peer_ids);
      let all_done =
        ops_done
        && List.for_all
             (fun j -> fst (Hashtbl.find st.digests (round, j)))
             peer_ids
      and all_agree =
        List.for_all
          (fun j -> String.equal (snd (Hashtbl.find st.digests (round, j))) my_digest)
          peer_ids
      in
      List.iter (fun j -> Hashtbl.remove st.digests (round, j)) peer_ids;
      incr r;
      if !result = None then
        if all_done && all_agree then begin
          D.finish st.drv ~round;
          result := Some Agreement
        end
        else if !r >= st.cfg.max_ticks then begin
          Printf.eprintf
            "node %d: max_ticks (%d) reached before lockstep agreement\n%!"
            st.cfg.id st.cfg.max_ticks;
          result := Some Max_ticks
        end
    done;
    (Option.get !result, !r)

  (** Run the replica to completion.

      [ops ~tick state] lists the operations this replica applies at
      tick [tick] given its current state (consulted for ticks
      [0 .. ops_ticks)).  [equal] feeds the driver's dirty tracking
      (wall-clock quiescence); [digest] must be a canonical fingerprint
      of the CRDT state — equal states must digest equally across
      processes — and drives lockstep termination.  [sink] attaches a
      trace sink (e.g. a JSONL writer) on top of the runtime's internal
      counting sink.

      [persist] attaches a durability sink ({!D.set_persist}): it is
      invoked with the current state at every tick/round whose
      apply/deliver work may have inflated it.  [boot] restarts the
      replica from a durably recovered state before dialing: the node
      is rebuilt via [P.load] — volatile protocol state gone, recovery
      exchange armed — exactly the semantics of a process that died and
      came back from its data directory. *)
  let serve ?sink ?persist ?boot ~(equal : P.crdt -> P.crdt -> bool)
      ~(digest : P.crdt -> string) (cfg : config)
      ~(ops : tick:int -> P.crdt -> P.op list) : result =
    (match Sys.signal Sys.sigpipe Sys.Signal_ignore with
    | _ -> ()
    | exception (Invalid_argument _ | Sys_error _) -> ());
    let sig_stop = ref None in
    (* Graceful shutdown: note the signal, let the loop finish its pass
       and exit with [Signal] — the caller then syncs and closes its
       store and reports the structured exit reason. *)
    List.iter
      (fun s ->
        match Sys.signal s (Sys.Signal_handle (fun s -> sig_stop := Some s)) with
        | _ -> ()
        | exception (Invalid_argument _ | Sys_error _) -> ())
      [ Sys.sigterm; Sys.sigint ];
    let counters = Trace.make_counters () in
    let counting = Trace.counting counters in
    let sink =
      match sink with
      | None -> counting
      | Some user -> Trace.tee counting user
    in
    let neighbors = List.map fst cfg.peers in
    let drv =
      D.create ~sink ~exact_bytes:true
        ~changed:(fun a b -> not (equal a b))
        ~id:cfg.id ~neighbors ~total:cfg.total ()
    in
    (match boot with Some s -> D.restart_from drv s | None -> ());
    (match persist with Some f -> D.set_persist drv f | None -> ());
    let loop = Evloop_epoll.loop () in
    let listener =
      match Unix.socket (Addr.domain cfg.listen) Unix.SOCK_STREAM 0 with
      | fd -> fd
      | exception e ->
          Evloop.close loop;
          raise e
    in
    let st =
      {
        cfg;
        drv;
        loop;
        listener;
        out = Hashtbl.create (List.length cfg.peers);
        inbound = [];
        peer_done = Hashtbl.create (List.length cfg.peers);
        tick_times = samples ();
        rng = Random.State.make [| cfg.id; 0x6e6574 |];
        quiet = 0;
        done_sent = false;
        sig_stop;
        to_bury = [];
        dead = Hashtbl.create 4;
        msgq = Hashtbl.create 8;
        marks_of = Hashtbl.create (List.length cfg.peers);
        digests = Hashtbl.create 8;
        pending_out = [];
      }
    in
    (* One cleanup for every exit, returned or raised (a peer that never
       listens, a lockstep stall, a framing error): every connection,
       the listener, the loop's own fd and the socket file. *)
    let release () =
      Hashtbl.iter (fun _ c -> Conn.close c) st.out;
      List.iter (fun ib -> Conn.close ib.conn) st.inbound;
      (try Unix.close listener with Unix.Unix_error _ -> ());
      Evloop.close loop;
      Addr.cleanup cfg.listen
    in
    Fun.protect ~finally:release @@ fun () ->
    (match cfg.listen with
    | Addr.Tcp _ -> Unix.setsockopt listener Unix.SO_REUSEADDR true
    | Addr.Unix_sock _ -> ());
    Addr.cleanup cfg.listen;
    Unix.bind listener (Addr.to_sockaddr cfg.listen);
    Unix.listen listener 64;
    Evloop.add loop ~read:true listener;
    log st "listening on %s" (Addr.to_string cfg.listen);
    (* Dial-all barrier: every peer must be reachable before the first
       tick, so no protocol message is ever emitted into the void. *)
    List.iter (dial st) cfg.peers;
    let t_start = Unix.gettimeofday () in
    let stop, ticks =
      if cfg.lockstep then serve_lockstep st ~digest ~ops
      else serve_wallclock st ~ops
    in
    (* Last durability point: deliveries since the final tick. *)
    D.sync_store drv;
    let wall_s = Unix.gettimeofday () -. t_start in
    (* Final drain: a frame queued behind a full socket buffer (a slow
       peer under free-running ticks) must not be discarded by the close
       in [release] — the Done broadcast travels on this queue, and a
       peer that never sees it waits until its max_ticks.  Switch each
       still-loaded connection to blocking with a send timeout and push
       the remainder out; a dead peer just errors and is dropped. *)
    Hashtbl.iter
      (fun j conn ->
        if Conn.alive conn && Conn.pending_out conn > 0 then begin
          (try
             Unix.clear_nonblock (Conn.fd conn);
             Unix.setsockopt_float (Conn.fd conn) Unix.SO_SNDTIMEO 5.0
           with Unix.Unix_error _ -> ());
          match Conn.flush conn with
          | Ok () -> ()
          | Error m -> log st "final drain to peer %d failed (%s)" j m
        end)
      st.out;
    let memory = D.memory drv in
    counters.ops_applied <- D.ops_applied drv;
    counters.memory_weight <- memory.weight;
    counters.memory_bytes <- memory.bytes;
    counters.metadata_memory_bytes <- memory.metadata_bytes;
    {
      state = D.state drv;
      ticks;
      counters;
      writes =
        Hashtbl.fold (fun _ c acc -> acc + Conn.writes c) st.out 0;
      wall_s;
      tick_p99_us = percentile st.tick_times 99 *. 1e6;
      backend = Evloop.backend_name loop;
      clean = (stop = Agreement);
      stop;
    }
end
