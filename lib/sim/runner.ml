(** Round-based simulation driver.

    Substitutes the paper's Kubernetes/Emulab deployment: one simulated
    round corresponds to one synchronization interval (1 s in the paper).
    Per round, every node first executes its periodic update operations,
    then every node runs a synchronization step; messages are delivered
    and any protocol-level replies (e.g. Scuttlebutt's digest → pairs
    exchange) are processed in waves until the network drains.

    The per-replica state machine (apply → tick → ship → handle →
    crash/recover) lives in {!Crdt_engine.Driver}.  This module is the
    simulator's transport around an array of drivers: round structure,
    topology routing, fault injection and the parallel schedule on a
    {!Crdt_engine.Pool}.  All accounting flows through per-shard
    {!Crdt_engine.Trace} counting sinks — each round's shard-order total
    is its {!Metrics.round} record, and [run ?sink] can attach a user
    sink (e.g. the JSONL trace writer) on top.

    {2 Fault injection}

    A {!Fault.plan} describes the adversity of a run: per-message
    duplication and reordering — the channel properties state-based
    CRDTs must tolerate (Section I) — plus four {e declared-capability}
    fault classes: probabilistic loss, scheduled link partitions (healed
    at a known round), per-link delay (messages held a fixed number of
    rounds) and node crash–restart.  {!run} validates the plan against
    {!Crdt_proto.Protocol_intf.PROTOCOL.capabilities} and fails fast on
    a class the protocol does not declare, instead of the former
    behaviour of silently returning a diverged run.

    Execution semantics, per round: crash/recover events and due delayed
    messages are applied at the round boundary ([begin_round]); a
    crashed node neither ticks nor applies operations, loses its
    volatile protocol state ([P.crash]) and keeps its durable state, and
    messages addressed to it are counted as dropped; at [recover_round]
    the node rejoins via [P.recover].  Partition cuts and delay captures
    are decided per message at delivery time as pure functions of
    [(round, src, dst)]; a message released from a delay is delivered
    unconditionally (its fault checks ran when it was captured).

    {2 Parallel schedule and determinism}

    The [domains] pool splits the nodes into shards: shard [s] of [w]
    owns the contiguous node range [s·n/w, (s+1)·n/w) (high shards own
    empty ranges when [w > n]), and each node's driver reports to its
    owning shard's counting sink.  Ticks run by source and deliveries by
    destination; a shard touches only its own nodes and buffers, and
    what its nodes emit lands in its outbox.  Contiguity makes the
    shard-order merge of the outboxes ([route]) equal to the ascending
    producing-node order of a sequential loop, so per-destination
    message order — and therefore every downstream PRNG draw, byte
    count and delivered state — is independent of the pool width.
    Fault randomness is drawn from per-destination PRNG streams (seeded
    from [fault_plan.seed] and the destination id) and partition/delay/
    crash decisions are deterministic in [(round, src, dst)].  Folded in
    shard order, the per-shard tallies are bit-identical at every
    [domains] setting.  Every wave, with a fault plan or without one,
    goes through the one per-destination delivery ([deliver_dst]); with
    an empty plan it hands each pending message to its destination's
    driver.

    After the measured rounds, the runner performs quiescent
    synchronization rounds (no further operations) until all replicas
    converge, and reports whether convergence was reached — every
    experiment doubles as a correctness check. *)

module Trace = Crdt_engine.Trace
module Dynbuf = Crdt_engine.Dynbuf
module Pool = Crdt_engine.Pool

module Make (P : Crdt_proto.Protocol_intf.PROTOCOL) = struct
  module D = Crdt_engine.Driver.Make (P)

  type result = {
    rounds : Metrics.round array;  (** one record per measured round. *)
    quiesce_rounds : Metrics.round array;
        (** extra rounds needed to reach convergence. *)
    finals : P.crdt array;
    converged : bool;
  }

  (** Re-export of {!Fault.plan} (the definition protocols and the
      harness share), keeping the record labels in scope here. *)
  type fault_plan = Fault.plan = {
    duplicate : float;  (** probability a delivered message is duplicated. *)
    drop : float;  (** probability a message is dropped. *)
    shuffle : bool;  (** randomize delivery order within a destination. *)
    partitions : Fault.partition list;
    delays : Fault.delay_rule list;
    crashes : Fault.crash list;
    seed : int;
        (** base seed of the per-destination fault streams: destination
            [d] draws from [Random.State.make [| seed; d |]], so random
            fault decisions do not depend on how nodes are sharded across
            domains. *)
  }

  let no_faults = Fault.none

  type engine = {
    n : int;
    total_rounds : int;  (** measured rounds; the fault schedule ends here. *)
    pool : Pool.t;  (** one shard per pool slot. *)
    drivers : D.t array;
    inbox : (int * P.message) Dynbuf.t array;
        (** per-destination [(src, msg)] pending this wave. *)
    out : (int * (int * P.message)) Dynbuf.t array;
        (** per-shard [(dst, (src, msg))] produced this wave, in
            production order. *)
    counters : Trace.counters array;  (** per-shard tallies. *)
    sinks : Trace.sink array;
        (** per-shard sink: the shard's counting sink, teed with the
            user sink when one was supplied. *)
    faults : fault_plan;
    rng_faults : bool;
        (** whether duplicate/drop/shuffle consult the PRNG streams. *)
    rngs : Random.State.t array;
        (** per-destination fault streams; [[||]] when no random fault is
            configured — that path never consults a PRNG. *)
    parts : (Fault.partition * int array) array;
        (** partitions with their compiled per-node island ids. *)
    delay : (int, int) Hashtbl.t;  (** [src * n + dst ↦ hold] rounds. *)
    events : (int * [ `Crash | `Recover ]) list array;
        (** crash/recover events per round boundary, recoveries first;
            length [total_rounds + 1]. *)
    held : (int * int * P.message) Dynbuf.t array;
        (** per-destination [(release_round, src, msg)] captured by a
            delay rule. *)
    released : (int * P.message) Dynbuf.t array;
        (** per-destination [(src, msg)] due this round, delivered in
            the first wave without further fault checks. *)
    mutable now : int;  (** current round (measured and quiescent). *)
  }

  (* Shard [s] owns the contiguous node range [lo s, hi s). *)
  let lo eng s = s * eng.n / Pool.size eng.pool
  let hi eng s = (s + 1) * eng.n / Pool.size eng.pool

  (* An active partition cuts src → d this round iff some partition
     window covers [now] and puts them on different islands. *)
  let cut eng ~src ~dst =
    let round = eng.now in
    let k = Array.length eng.parts in
    let rec go i =
      if i >= k then false
      else
        let (p : Fault.partition), islands = eng.parts.(i) in
        (round >= p.from_round && round < p.heal_round
        && islands.(src) <> islands.(dst))
        || go (i + 1)
    in
    go 0

  let delay_of eng ~src ~dst =
    if Hashtbl.length eng.delay = 0 then None
    else Hashtbl.find_opt eng.delay ((src * eng.n) + dst)

  (* Handle one wave of destination [d]'s inbox plus any delay releases
     due this round (shard-local: only [d]'s driver and shard-owned
     buffers are touched).  Fault decisions (drop/hold/cut) are the
     transport's to make, so they are reported here; accepted messages
     go through the driver, which does the delivery accounting. *)
  let deliver_dst eng s d =
    let inb = eng.inbox.(d) in
    let rel = eng.released.(d) in
    let len = Dynbuf.length inb in
    let rlen = Dynbuf.length rel in
    if len > 0 || rlen > 0 then begin
      let snk = eng.sinks.(s) in
      let out = eng.out.(s) in
      let drv = eng.drivers.(d) in
      let round = eng.now in
      let emit ~dest msg = Dynbuf.push out (dest, (d, msg)) in
      if D.down drv then begin
        (* Everything addressed to a crashed node is lost. *)
        for k = 0 to len - 1 do
          let src, _ = Dynbuf.get inb k in
          snk.drop ~node:d ~src ~round
        done;
        for k = 0 to rlen - 1 do
          let src, _ = Dynbuf.get rel k in
          snk.drop ~node:d ~src ~round
        done;
        Dynbuf.clear inb;
        Dynbuf.clear rel
      end
      else begin
        (* Delay releases first: their fault checks ran at capture time,
           so they are delivered unconditionally (and counted now). *)
        if rlen > 0 then begin
          for k = 0 to rlen - 1 do
            let src, msg = Dynbuf.get rel k in
            D.deliver drv ~round ~src ~emit msg
          done;
          Dynbuf.clear rel
        end;
        if len > 0 then begin
          let f = eng.faults in
          if eng.rng_faults && f.shuffle then
            Dynbuf.shuffle ~rng:eng.rngs.(d) inb;
          for k = 0 to len - 1 do
            let src, msg = Dynbuf.get inb k in
            (* Deterministic checks (partition, delay) come first so
               the per-destination PRNG draw sequence is a function of
               the surviving message sequence only. *)
            if cut eng ~src ~dst:d then snk.cut ~node:d ~src ~round
            else
              match delay_of eng ~src ~dst:d with
              | Some hold ->
                  snk.hold ~node:d ~src ~round;
                  Dynbuf.push eng.held.(d) (round + hold, src, msg)
              | None ->
                  let dropped =
                    eng.rng_faults && f.drop > 0.
                    && Random.State.float eng.rngs.(d) 1. < f.drop
                  in
                  if dropped then snk.drop ~node:d ~src ~round
                  else
                    let copies =
                      if
                        eng.rng_faults && f.duplicate > 0.
                        && Random.State.float eng.rngs.(d) 1. < f.duplicate
                      then 2
                      else 1
                    in
                    D.deliver drv ~round ~src ~copies ~emit msg
          done;
          Dynbuf.clear inb
        end
      end
    end

  (* One wave, by destination: each shard delivers to its own nodes,
     and their replies land in its outbox for the next wave. *)
  let deliver eng =
    Pool.run eng.pool (fun s ->
        for d = lo eng s to hi eng s - 1 do
          deliver_dst eng s d
        done)

  (* Tick phase, by source: each shard ticks its own nodes (a crashed
     driver skips itself) and queues what they emit in its outbox. *)
  let tick eng =
    let round = eng.now in
    Pool.run eng.pool (fun s ->
        let out = eng.out.(s) in
        for i = lo eng s to hi eng s - 1 do
          D.tick eng.drivers.(i) ~round ~emit:(fun ~dest msg ->
              Dynbuf.push out (dest, (i, msg)))
        done)

  (* Move every outbox entry to its destination's inbox, sequentially
     and in shard order, so each inbox fills in producing-node order at
     every pool width.  Returns whether anything is pending. *)
  let route eng =
    let any = ref false in
    Array.iter
      (fun out ->
        if not (Dynbuf.is_empty out) then begin
          any := true;
          Dynbuf.iter
            (fun (dst, payload) -> Dynbuf.push eng.inbox.(dst) payload)
            out;
          Dynbuf.clear out
        end)
      eng.out;
    !any

  (* Round boundary: apply crash/recover events scheduled for [round]
     (recoveries first, so back-to-back windows on one node behave) and
     move due delayed messages into the release buffers.  Sequential and
     in fixed order — deterministic at every domain count. *)
  let begin_round eng ~round =
    eng.now <- round;
    if round <= eng.total_rounds then
      List.iter
        (fun (i, ev) ->
          match ev with
          | `Recover -> D.recover eng.drivers.(i) ~round
          | `Crash -> D.crash eng.drivers.(i) ~round)
        eng.events.(round);
    Array.iteri
      (fun d buf ->
        if not (Dynbuf.is_empty buf) then begin
          let keep = ref [] in
          for k = 0 to Dynbuf.length buf - 1 do
            let (due, src, msg) as e = Dynbuf.get buf k in
            if due <= round then Dynbuf.push eng.released.(d) (src, msg)
            else keep := e :: !keep
          done;
          Dynbuf.clear buf;
          List.iter (Dynbuf.push buf) (List.rev !keep)
        end)
      eng.held

  (* One synchronization round: tick every live node, then drain the
     network wave by wave (each pool barrier separates waves).  The
     first wave also delivers the delay releases of this round, so it
     must run even when ticking produced nothing. *)
  let sync_round eng =
    tick eng;
    let any_released =
      Array.exists (fun b -> not (Dynbuf.is_empty b)) eng.released
    in
    if route eng || any_released then deliver eng;
    while route eng do
      deliver eng
    done

  (* Post-round memory snapshot (parallel per-shard sums into the
     counters the last round's reset zeroed), then the shard-order sum
     of the tallies is the round record.  [sync_rounds] is capped at 1:
     each shard contributes 0 or 1, and a round either synchronized or
     did not. *)
  let finish_round eng ~ops_applied : Metrics.round =
    Pool.run eng.pool (fun s ->
        let c = eng.counters.(s) in
        for i = lo eng s to hi eng s - 1 do
          let m = D.memory eng.drivers.(i) in
          c.memory_weight <- c.memory_weight + m.weight;
          c.memory_bytes <- c.memory_bytes + m.bytes;
          c.metadata_memory_bytes <- c.metadata_memory_bytes + m.metadata_bytes
        done);
    let c = Trace.sum eng.counters in
    c.sync_rounds <- min 1 c.sync_rounds;
    Array.iter Trace.reset_counters eng.counters;
    c.ops_applied <- ops_applied;
    c

  let all_equal ~equal eng =
    let first = D.state eng.drivers.(0) in
    Array.for_all (fun drv -> equal (D.state drv) first) eng.drivers

  (** Run a simulation.

      [ops ~round ~node state] lists the operations node [node] performs
      at the start of [round] given its current local state (Retwis needs
      the state to read follower sets); the ops phase always runs
      sequentially on the calling domain because workload generators may
      carry their own PRNG; a crashed node performs no operations.
      [quiesce_limit] bounds the post-measurement convergence phase.
      [domains] sets the pool width; any value produces bit-identical
      results for a fixed fault seed.  [bytes] selects the byte
      accounting: under {!Metrics.Exact} every delivered message is
      additionally sized exactly via [P.message_wire_bytes] into the
      [wire_bytes] counters (the estimate counters are always kept).
      [sink] attaches a {!Crdt_engine.Trace} sink to every replica (all
      events, including per-message [Send]/[Recv]); it requires
      [domains = 1], since a shared sink would otherwise race.

      @raise Invalid_argument when the fault plan is structurally
      invalid ({!Fault.validate}) or demands a fault class the protocol
      does not declare in its capabilities ({!Fault.require}), or when a
      [sink] is combined with [domains > 1]. *)
  let run ?(faults = no_faults) ?(quiesce_limit = 64) ?(domains = 1)
      ?(bytes = Metrics.Estimate) ?sink ~equal ~topology ~rounds ~ops () =
    if domains < 1 then invalid_arg "Runner.run: domains must be >= 1";
    if Option.is_some sink && domains > 1 then
      invalid_arg "Runner.run: a trace sink requires domains = 1";
    let n = Topology.size topology in
    Fault.validate ~nodes:n ~rounds faults;
    Fault.require ~protocol:P.protocol_name ~caps:P.capabilities faults;
    let exact_bytes = bytes = Metrics.Exact in
    Pool.with_pool domains (fun pool ->
        let rng_faults = Fault.rng_active faults in
        let delay = Hashtbl.create (max 1 (List.length faults.delays)) in
        List.iter
          (fun (d : Fault.delay_rule) ->
            Hashtbl.replace delay ((d.src * n) + d.dst) d.hold)
          faults.delays;
        let events = Array.make (rounds + 1) [] in
        List.iter
          (fun (c : Fault.crash) ->
            events.(c.crash_round) <-
              events.(c.crash_round) @ [ (c.victim, `Crash) ];
            events.(c.recover_round) <-
              (c.victim, `Recover) :: events.(c.recover_round))
          faults.crashes;
        let counters = Array.init domains (fun _ -> Trace.make_counters ()) in
        let sinks =
          Array.map
            (fun c ->
              let counting = Trace.counting c in
              match sink with
              | None -> counting
              | Some user -> Trace.tee counting user)
            counters
        in
        (* Node [i] belongs to the shard [s] with [lo s <= i < hi s]. *)
        let owner i = (((i + 1) * domains) - 1) / n in
        let drivers =
          Array.init n (fun i ->
              D.create ~sink:sinks.(owner i) ~exact_bytes ~id:i
                ~neighbors:(Topology.neighbors topology i) ~total:n ())
        in
        let eng =
          {
            n;
            total_rounds = rounds;
            pool;
            drivers;
            inbox = Array.init n (fun _ -> Dynbuf.create ());
            out = Array.init domains (fun _ -> Dynbuf.create ());
            counters;
            sinks;
            faults;
            rng_faults;
            rngs =
              (if rng_faults then
                 Array.init n (fun d -> Random.State.make [| faults.seed; d |])
               else [||]);
            parts =
              Array.of_list
                (List.map
                   (fun p -> (p, Fault.island_map ~nodes:n p))
                   faults.partitions);
            delay;
            events;
            held = Array.init n (fun _ -> Dynbuf.create ());
            released = Array.init n (fun _ -> Dynbuf.create ());
            now = 0;
          }
        in
        let measured =
          Array.init rounds (fun round ->
              begin_round eng ~round;
              let applied = ref 0 in
              Array.iteri
                (fun i drv ->
                  if not (D.down drv) then
                    applied :=
                      !applied
                      + D.apply drv (ops ~round ~node:i (D.state drv)))
                drivers;
              sync_round eng;
              finish_round eng ~ops_applied:!applied)
        in
        (* Quiescent phase: keep synchronizing without new operations
           until all replicas agree (or the bound is hit).  Events
           scheduled exactly at [rounds] (a heal/recovery closing the
           measured phase) land at the first quiescent boundary, so that
           round is forced even if states momentarily look equal. *)
        let late_events = events.(rounds) <> [] in
        let quiesce = ref [] in
        let steps = ref 0 in
        while
          !steps < quiesce_limit
          && ((!steps = 0 && late_events) || not (all_equal ~equal eng))
        do
          begin_round eng ~round:(rounds + !steps);
          incr steps;
          sync_round eng;
          quiesce := finish_round eng ~ops_applied:0 :: !quiesce
        done;
        let converged = all_equal ~equal eng in
        if converged then
          Array.iter (fun drv -> D.finish drv ~round:(rounds + !steps)) drivers;
        {
          rounds = measured;
          quiesce_rounds = Array.of_list (List.rev !quiesce);
          finals = Array.map D.state drivers;
          converged;
        })

  (** Summary over the measured rounds only. *)
  let summary r = Metrics.summarize r.rounds

  (** Summary including the quiescent convergence tail. *)
  let full_summary r =
    Metrics.summarize (Array.append r.rounds r.quiesce_rounds)
end
