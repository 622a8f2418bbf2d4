(** The parallel execution layer: a Domain work-pool plus the sharded
    Driver scheduler the simulator runs on.

    {!Pool} is the raw barrier primitive (moved here from the
    simulator, which grew it in PR 2): [size - 1] resident worker
    domains parked on a condition variable plus the caller's domain,
    running one job per barrier.

    {!Make} owns an array of {!Driver} shards and schedules them the
    way the simulator always has — tick-by-source, handle-by-
    destination — so the partitioning, the per-shard {!Trace} counting
    sinks and the deterministic shard-order outbox merge live in one
    place.  The simulator ([Crdt_sim.Runner]) is its client; the socket
    runtime ([Crdt_net.Runtime]) is not — it runs one Driver on one
    domain and uses neither the pool nor the scheduler.

    {2 Determinism contract}

    Shard [s] of [w] owns the contiguous node range
    [s·n/w, (s+1)·n/w).  Contiguity makes the shard-order merge of the
    per-shard outboxes ({!Make.route}) equal to the ascending
    producing-node order a sequential engine uses, so per-destination
    message order — and therefore every downstream PRNG draw, byte
    count and delivered state — is independent of the domain count.
    Each shard tallies into its own {!Trace.counters}; folding them in
    shard order yields totals that are bit-identical at every pool
    width. *)

module Pool = struct
  (* [size - 1] resident worker domains plus the caller's domain run
     one job per barrier; workers are spawned once and parked on a
     condition variable between jobs, so the per-round cost of
     parallelism is two mutex handshakes, not a [Domain.spawn].  A pool
     of size 1 never spawns a domain and [run] degenerates to a plain
     call — sequential and parallel clients share one code path. *)

  type t = {
    size : int;
    mutex : Mutex.t;
    work : Condition.t;  (** signalled when a new job is published. *)
    finished : Condition.t;  (** signalled when the last shard completes. *)
    mutable job : int -> unit;
    mutable epoch : int;  (** bumped per job; workers run each epoch once. *)
    mutable pending : int;  (** worker shards still running this epoch. *)
    mutable stop : bool;
    mutable failed : exn option;
        (** first worker exception, re-raised by [run]. *)
    mutable domains : unit Domain.t list;
  }

  let size t = t.size

  let worker t shard =
    let seen = ref 0 in
    let rec loop () =
      Mutex.lock t.mutex;
      while t.epoch = !seen && not t.stop do
        Condition.wait t.work t.mutex
      done;
      if t.stop then Mutex.unlock t.mutex
      else begin
        seen := t.epoch;
        let job = t.job in
        Mutex.unlock t.mutex;
        (try job shard
         with e ->
           Mutex.lock t.mutex;
           if t.failed = None then t.failed <- Some e;
           Mutex.unlock t.mutex);
        Mutex.lock t.mutex;
        t.pending <- t.pending - 1;
        if t.pending = 0 then Condition.signal t.finished;
        Mutex.unlock t.mutex;
        loop ()
      end
    in
    loop ()

  let create size =
    if size < 1 then invalid_arg "Pool.create: size must be >= 1";
    (* The OCaml runtime caps live domains at 128. *)
    if size > 64 then invalid_arg "Pool.create: size must be <= 64";
    let t =
      {
        size;
        mutex = Mutex.create ();
        work = Condition.create ();
        finished = Condition.create ();
        job = ignore;
        epoch = 0;
        pending = 0;
        stop = false;
        failed = None;
        domains = [];
      }
    in
    t.domains <-
      List.init (size - 1) (fun i -> Domain.spawn (fun () -> worker t (i + 1)));
    t

  (** Run [job shard] for every shard [0 .. size-1]; returns when all
      have completed.  Exceptions raised by any shard are re-raised here
      (the caller's shard first). *)
  let run t job =
    if t.size = 1 then job 0
    else begin
      Mutex.lock t.mutex;
      t.job <- job;
      t.pending <- t.size - 1;
      t.epoch <- t.epoch + 1;
      Condition.broadcast t.work;
      Mutex.unlock t.mutex;
      let caller = (try job 0; None with e -> Some e) in
      Mutex.lock t.mutex;
      while t.pending > 0 do
        Condition.wait t.finished t.mutex
      done;
      let from_worker = t.failed in
      t.failed <- None;
      Mutex.unlock t.mutex;
      match (caller, from_worker) with
      | Some e, _ | None, Some e -> raise e
      | None, None -> ()
    end

  let shutdown t =
    if t.domains <> [] then begin
      Mutex.lock t.mutex;
      t.stop <- true;
      Condition.broadcast t.work;
      Mutex.unlock t.mutex;
      List.iter Domain.join t.domains;
      t.domains <- []
    end

  let with_pool size f =
    let t = create size in
    Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)
end

module Make (P : Crdt_proto.Protocol_intf.PROTOCOL) = struct
  module D = Driver.Make (P)

  type t = {
    n : int;
    shards : int;
    pool : Pool.t;
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
  }

  (* Shard [s] owns the contiguous node range [lo s, hi s). *)
  let lo t s = s * t.n / t.shards
  let hi t s = (s + 1) * t.n / t.shards

  let create ?sink ?exact_bytes ?changed ~pool ~n ~neighbors () =
    if n < 1 then invalid_arg "Shard.create: n must be >= 1";
    let shards = Pool.size pool in
    let counters = Array.init shards (fun _ -> Trace.make_counters ()) in
    let sinks =
      Array.init shards (fun s ->
          let counting = Trace.counting counters.(s) in
          match sink with
          | None -> counting
          | Some user -> Trace.tee counting user)
    in
    (* Node → owning shard, to hand each driver its shard's sink. *)
    let shard_of =
      let a = Array.make n 0 in
      for s = 0 to shards - 1 do
        for i = s * n / shards to ((s + 1) * n / shards) - 1 do
          a.(i) <- s
        done
      done;
      a
    in
    let drivers =
      Array.init n (fun i ->
          D.create ~sink:sinks.(shard_of.(i)) ?exact_bytes ?changed ~id:i
            ~neighbors:(neighbors i) ~total:n ())
    in
    {
      n;
      shards;
      pool;
      drivers;
      inbox = Array.init n (fun _ -> Dynbuf.create ());
      out = Array.init shards (fun _ -> Dynbuf.create ());
      counters;
      sinks;
    }

  let n t = t.n
  let shards t = t.shards
  let pool t = t.pool
  let drivers t = t.drivers
  let driver t i = t.drivers.(i)

  let shard_of t i =
    (* Ranges are contiguous and ascending; start from the integer
       estimate and walk to the owner (at most one step off). *)
    let rec fix s =
      if lo t s > i then fix (s - 1)
      else if hi t s <= i then fix (s + 1)
      else s
    in
    fix (i * t.shards / t.n)

  let sink t ~shard = t.sinks.(shard)
  let inbox t d = t.inbox.(d)
  let outbox t ~shard = t.out.(shard)
  let counters t = t.counters
  let run_shards t job = Pool.run t.pool job

  (* Tick phase: shard-local; messages go to the shard's outbox (the
     driver skips crashed nodes itself). *)
  let tick t ~round =
    Pool.run t.pool (fun s ->
        let out = t.out.(s) in
        for i = lo t s to hi t s - 1 do
          D.tick t.drivers.(i) ~round ~emit:(fun ~dest msg ->
              Dynbuf.push out (dest, (i, msg)))
        done)

  (* Route every outbox entry to its destination inbox.  Sequential, in
     shard order; returns whether anything is pending. *)
  let route t =
    let any = ref false in
    Array.iter
      (fun out ->
        if not (Dynbuf.is_empty out) then begin
          any := true;
          Dynbuf.iter
            (fun (dst, payload) -> Dynbuf.push t.inbox.(dst) payload)
            out;
          Dynbuf.clear out
        end)
      t.out;
    !any

  (* Fault-free delivery of one wave: every pending message goes
     through its destination's driver; replies land in the shard outbox
     for the next wave.  Transports with a fault model (the simulator)
     run their own per-destination logic via [run_shards] instead. *)
  let deliver_wave t ~round =
    Pool.run t.pool (fun s ->
        let out = t.out.(s) in
        for d = lo t s to hi t s - 1 do
          let inb = t.inbox.(d) in
          let len = Dynbuf.length inb in
          if len > 0 then begin
            let drv = t.drivers.(d) in
            let emit ~dest msg = Dynbuf.push out (dest, (d, msg)) in
            for k = 0 to len - 1 do
              let src, msg = Dynbuf.get inb k in
              D.deliver drv ~round ~src ~emit msg
            done;
            Dynbuf.clear inb
          end
        done)

  (** Tick then deliver waves until the network drains — the fault-free
      round loop a direct client (or a test) drives. *)
  let sync_round t ~round =
    tick t ~round;
    while route t do
      deliver_wave t ~round
    done

  (* Post-round memory snapshot: parallel per-shard sums into the shard
     counters. *)
  let snapshot_memory t =
    Pool.run t.pool (fun s ->
        let c = t.counters.(s) in
        c.memory_weight <- 0;
        c.memory_bytes <- 0;
        c.metadata_memory_bytes <- 0;
        for i = lo t s to hi t s - 1 do
          let m = D.memory t.drivers.(i) in
          c.memory_weight <- c.memory_weight + m.weight;
          c.memory_bytes <- c.memory_bytes + m.bytes;
          c.metadata_memory_bytes <- c.metadata_memory_bytes + m.metadata_bytes
        done)

  let reset_counters t = Array.iter Trace.reset_counters t.counters

  (** Sum the per-shard counters, in shard order, into one fresh
      total.  [sync_rounds] is capped at 1: per-shard counters are
      reset every round, so each contributes 0 or 1 and the total is
      their OR — a round either synchronized or did not. *)
  let total_counters t =
    let acc = Trace.sum t.counters in
    acc.sync_rounds <- min 1 acc.sync_rounds;
    acc

  let state t i = D.state t.drivers.(i)

  let all_equal ~equal t =
    let first = D.state t.drivers.(0) in
    Array.for_all (fun drv -> equal (D.state drv) first) t.drivers
end
