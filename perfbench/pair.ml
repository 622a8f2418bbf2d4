(* Two paced replicas over one loopback unix-socket link.

   Replica 0 runs on the calling domain and replica 1 on one spawned
   domain, each through [Crdt_net.Runtime.Make(P).serve]; each dials
   the other, so the link is two connections.  Replica 1 starts first
   and binds; replica 0 starts once replica 1's socket exists, so
   replica 0 always dials successfully and replica 1's first dial
   always meets an unbound peer and backs off once before its loop
   starts.  That start-up backoff therefore falls before replica 1's
   loop and outside every timing below.

   The load is open loop: replica [i]'s operations fall due on a fixed
   schedule, [k] per tick starting at its first tick, and every tick
   applies all operations already due.  For each operation the origin
   computes its optimal delta ([delta_mutate] at the origin's current
   state); the [k] operations due at one instant are logged together,
   as the join of their deltas, with their due time.  After every
   delivery the peer tests the oldest pending entries with [leq]; an
   operation is visible at every replica when its peer includes it, and
   its latency runs from its due time.  The measured phase runs from
   replica 0's first due operation until the last operation is visible
   everywhere. *)

module type CRDT = Crdt_proto.Protocol_intf.CRDT
module type PROTOCOL = Crdt_proto.Protocol_intf.PROTOCOL

module Make (C : CRDT) = struct
  type stack =
    (module PROTOCOL with type crdt = C.t and type op = C.op)

  type lattice = (module CRDT with type t = C.t and type op = C.op)

  type config = {
    tick_ms : int;
    k : int;  (** operations due per tick per replica. *)
    slots : int;  (** ticks with operations, per replica. *)
    gen : replica:int -> slot:int -> idx:int -> C.op;
    boot : C.t option array;  (** per-replica boot image. *)
    lagging : int option;
        (** the replica whose catch-up with its peer's boot image is
            timed. *)
    persist : (C.t -> unit) option array;
    sockets : string;  (** directory (relative) for the socket files. *)
  }

  let f_ops = Span.fn Bench "ops"

  (* Per-origin published operation log, one entry per due instant:
     written by the origin's domain, read by the peer's after
     [published]. *)
  type log = {
    deltas : C.t array;
    due : float array;
    published : int Atomic.t;
    mutable written : int;
    mutable head : int;  (** next entry the peer has not yet seen. *)
    mutable next_slot : int;
    mutable t0 : float;
    latency : Measure.samples;  (** filled by the peer's domain. *)
    lag : Measure.samples;  (** filled by the origin's domain. *)
  }

  (* Runs both replicas to agreement, fills [r] and returns their final
     states. *)
  let run ~traced ~(stack : stack) ~(lattice : lattice) ~t_start cfg
      (r : Rep.t) : C.t array =
    let module P = (val stack) in
    let module L = (val lattice) in
    let module H = Traced.Hooked (P) in
    let module Rt = Crdt_net.Runtime.Make (H) in
    let tick_s = float_of_int cfg.tick_ms /. 1000. in
    let total = cfg.slots * cfg.k in
    let logs =
      Array.init 2 (fun _ ->
          {
            deltas = Array.make cfg.slots C.bottom;
            due = Array.make cfg.slots 0.;
            published = Atomic.make 0;
            written = 0;
            head = 0;
            next_slot = 0;
            t0 = 0.;
            latency = Measure.samples ();
            lag = Measure.samples ();
          })
    in
    let cpu0 = ref 0. in
    let finished = Atomic.make 0 in
    let t_end = ref 0. and cpu_end = ref 0. in
    (* Catch-up: from the moment the later replica (1) serves — its
       first delivery or tick — until the lagging replica includes its
       peer's boot image. *)
    let serving1 = ref 0. in
    let catch_end = ref 0. in
    let lag_delta =
      let image i = Option.value cfg.boot.(i) ~default:C.bottom in
      Option.map (fun l -> C.delta (image (1 - l)) (image l)) cfg.lagging
    in
    let ops i ~tick state =
      let now = Measure.wall () in
      let lg = logs.(i) in
      if lg.t0 = 0. then begin
        lg.t0 <- now;
        if i = 0 then begin
          cpu0 := Measure.cpu ();
          if traced then Atomic.set Span.measuring true
        end
        else if !serving1 = 0. then serving1 := now
      end;
      if traced then Span.set_context ~replica:i ~round:tick;
      let rid = Crdt_core.Replica_id.of_int i in
      let x = ref state and out = ref [] in
      while
        lg.next_slot < cfg.slots
        && lg.t0 +. (float_of_int lg.next_slot *. tick_s) <= now
      do
        let due = lg.t0 +. (float_of_int lg.next_slot *. tick_s) in
        let slot = ref C.bottom in
        for idx = 0 to cfg.k - 1 do
          let op = cfg.gen ~replica:i ~slot:lg.next_slot ~idx in
          let d = C.delta_mutate op rid !x in
          x := C.join !x d;
          slot := C.join !slot d;
          out := op :: !out
        done;
        lg.deltas.(lg.written) <- !slot;
        lg.due.(lg.written) <- due;
        lg.written <- lg.written + 1;
        Measure.add lg.lag ((now -. due) *. 1000.);
        lg.next_slot <- lg.next_slot + 1
      done;
      Atomic.set lg.published lg.written;
      List.rev !out
    in
    let observe j s =
      let now = Measure.wall () in
      if j = 1 && !serving1 = 0. then serving1 := now;
      (match (cfg.lagging, lag_delta) with
      | Some l, Some d when l = j && !catch_end = 0. ->
          if C.leq d s then catch_end := now
      | _ -> ());
      let lg = logs.(1 - j) in
      let n = Atomic.get lg.published in
      while lg.head < n && C.leq lg.deltas.(lg.head) s do
        let ms = (now -. lg.due.(lg.head)) *. 1000. in
        for _ = 1 to cfg.k do
          Measure.add lg.latency ms
        done;
        lg.head <- lg.head + 1;
        if lg.head = cfg.slots && Atomic.fetch_and_add finished 1 = 1 then begin
          t_end := now;
          cpu_end := Measure.cpu ();
          Atomic.set Span.measuring false
        end
      done
    in
    let sink i =
      let ctx ~node:_ ~round = Span.set_context ~replica:i ~round in
      let control = ref [] in
      ( {
          Crdt_engine.Trace.null with
          tick = ctx;
          deliver = (fun ~node ~src:_ ~round -> ctx ~node ~round);
          recv =
            (fun ~node:_ ~src:_ ~round:_ ~weight ~metadata ~payload_bytes:_
                 ~metadata_bytes:_ ~wire_bytes ->
              if weight = 0 && metadata > 0 then
                control := (Measure.wall (), wire_bytes) :: !control);
        },
        control )
    in
    let sinks = Array.init 2 sink in
    let addr i =
      Crdt_net.Addr.Unix_sock
        (Filename.concat cfg.sockets (Printf.sprintf "r%d.sock" i))
    in
    let conf i =
      {
        (Crdt_net.Runtime.default_config ~id:i ~listen:(addr i)
           ~peers:[ (1 - i, addr (1 - i)) ]
           ~total:2)
        with
        tick_ms = cfg.tick_ms;
        ops_ticks = cfg.slots + 50;
        quiet_ticks = 5;
        max_ticks = cfg.slots + 60_000;
        max_wall_s = (float_of_int cfg.slots *. tick_s) +. 60.;
        dial_timeout_s = 20.;
      }
    in
    let digest s =
      Digest.string (Crdt_wire.Codec.encode_to_string C.codec s)
    in
    let serve i =
      H.set_observer (observe i);
      let sink = if traced then Some (fst sinks.(i)) else None in
      let ops ~tick state =
        if traced then Span.wrap f_ops (fun () -> ops i ~tick state) ()
        else ops i ~tick state
      in
      Rt.serve ?sink ?persist:cfg.persist.(i) ?boot:cfg.boot.(i) ~equal:L.equal
        ~digest (conf i) ~ops
    in
    Measure.mkdirs cfg.sockets;
    let d1 = Domain.spawn (fun () -> serve 1) in
    let path1 = match addr 1 with Crdt_net.Addr.Unix_sock p -> p | _ -> "" in
    let deadline = Measure.wall () +. 20. in
    while not (Sys.file_exists path1) do
      if Measure.wall () > deadline then begin
        ignore (Domain.join d1);
        failwith "replica 1 never bound its socket"
      end;
      Unix.sleepf 0.0001
    done;
    let res0 =
      match serve 0 with
      | r0 -> r0
      | exception e ->
          ignore (Domain.join d1);
          raise e
    in
    let res1 = Domain.join d1 in
    Atomic.set Span.measuring false;
    let res = [| res0; res1 |] in
    (* Measured phase. *)
    r.setup_s <- logs.(0).t0 -. t_start;
    r.ops <- 2 * total;
    r.span_s <- !t_end -. logs.(0).t0;
    r.cpu_s <- !cpu_end -. !cpu0;
    if cfg.lagging <> None then r.catchup_s <- !catch_end -. !serving1;
    Array.iter
      (fun lg ->
        Measure.append r.visible_ms lg.latency;
        Measure.append r.gen_lag_ms lg.lag;
        for s = 0 to Measure.count lg.latency - 1 do
          Measure.add r.visible_rounds
            (lg.latency.Measure.buf.(s) /. float_of_int cfg.tick_ms)
        done)
      logs;
    Array.iter
      (fun (x : Rt.result) ->
        let c = x.Rt.counters in
        r.wire_bytes <- r.wire_bytes + c.wire_bytes;
        r.messages <- r.messages + c.messages;
        r.payload <- r.payload + c.payload;
        r.digest_bytes <- r.digest_bytes + c.digest_bytes;
        r.sync_rounds <- r.sync_rounds + c.sync_rounds;
        r.writes <- r.writes + x.Rt.writes;
        r.ticks <- r.ticks + x.Rt.ticks;
        r.tick_p99_us <- Float.max r.tick_p99_us x.Rt.tick_p99_us)
      res;
    Array.iter
      (fun (_, control) ->
        List.iter
          (fun (t, b) ->
            if !catch_end > 0. && t <= !catch_end then
              r.reconcile_bytes <- r.reconcile_bytes + b)
          !control)
      sinks;
    let finals = Array.map (fun (x : Rt.result) -> x.Rt.state) res in
    Array.iteri
      (fun i (x : Rt.result) ->
        if not x.Rt.clean then
          Rep.fail r "replica %d stopped by %s, not agreement" i
            (Crdt_net.Runtime.stop_reason_name x.Rt.stop))
      res;
    if not (String.equal (digest finals.(0)) (digest finals.(1))) then
      Rep.fail r "final state digests differ";
    let unseen =
      Array.fold_left (fun acc lg -> acc + (cfg.k * (cfg.slots - lg.head))) 0 logs
    in
    if unseen > 0 then
      Rep.fail r "%d operations never visible at every replica" unseen;
    if cfg.lagging <> None && !catch_end = 0. then
      Rep.fail r "the lagging replica never caught up with its peer";
    r.failed <- (if r.gate = [] then 0 else r.ops);
    finals
end
