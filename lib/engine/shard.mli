(** The simulator's parallel execution layer: a Domain work-pool
    ({!Pool}) plus the sharded Driver scheduler ({!Make}) that
    partitions tick-by-source / handle-by-destination with
    deterministic shard-order merges.

    Shard [s] of [w] owns the contiguous node range [s·n/w, (s+1)·n/w).
    Contiguity makes the shard-order merge of the per-shard outboxes
    equal to the ascending producing-node order a sequential engine
    uses, so per-destination message order — and everything downstream
    of it — is independent of the pool width.  Each shard tallies into
    its own {!Trace.counters}; folded in shard order the totals are
    bit-identical at every [domains] setting. *)

(** Fixed work-pool over OCaml 5 domains (stdlib only).

    [size - 1] resident worker domains plus the caller's domain execute
    jobs of [size] shards; a pool of size 1 spawns nothing and runs jobs
    inline, so sequential and parallel callers share one code path. *)
module Pool : sig
  type t

  val create : int -> t
  (** Spawn a pool of [size] shards (1 <= size <= 64). *)

  val size : t -> int

  val run : t -> (int -> unit) -> unit
  (** [run t job] executes [job shard] for every shard [0 .. size t - 1]
      (shard 0 on the calling domain) and returns once all shards have
      finished.  A shard's exception is re-raised after the barrier. *)

  val shutdown : t -> unit
  (** Stop and join the worker domains.  Idempotent. *)

  val with_pool : int -> (t -> 'a) -> 'a
  (** [with_pool size f] runs [f] with a fresh pool and always shuts it
      down, including on exception. *)
end

module Make (P : Crdt_proto.Protocol_intf.PROTOCOL) : sig
  module D : module type of Driver.Make (P)

  type t
  (** [n] Driver shards scheduled over a {!Pool}: per-shard outboxes,
      per-destination inboxes, per-shard counting sinks. *)

  val create :
    ?sink:Trace.sink ->
    ?exact_bytes:bool ->
    ?changed:(P.crdt -> P.crdt -> bool) ->
    pool:Pool.t ->
    n:int ->
    neighbors:(int -> int list) ->
    unit ->
    t
  (** Build the driver array.  [neighbors i] lists node [i]'s topology
      neighbours.  [sink] is teed onto every shard's counting sink; with
      a pool wider than 1 it runs on worker domains, so callers that
      attach one must either restrict to one domain (the simulator
      does) or supply a thread-safe sink. *)

  val n : t -> int
  val shards : t -> int
  val pool : t -> Pool.t
  val lo : t -> int -> int
  (** First node of a shard's contiguous range. *)

  val hi : t -> int -> int
  (** One past the last node of a shard's range. *)

  val shard_of : t -> int -> int
  (** The shard owning a node. *)

  val drivers : t -> D.t array
  val driver : t -> int -> D.t
  val sink : t -> shard:int -> Trace.sink
  val inbox : t -> int -> (int * P.message) Dynbuf.t
  (** Destination [d]'s pending [(src, msg)] wave. *)

  val outbox : t -> shard:int -> (int * (int * P.message)) Dynbuf.t
  (** Shard [s]'s produced [(dst, (src, msg))] entries, production
      order. *)

  val counters : t -> Trace.counters array
  (** The per-shard tallies, in shard order. *)

  val run_shards : t -> (int -> unit) -> unit
  (** Run a custom shard job on the pool (the simulator's fault-aware
      delivery).  The job for shard [s] must touch only nodes in
      [lo s, hi s) and shard-[s] buffers. *)

  val tick : t -> round:int -> unit
  (** Parallel tick of every driver; emitted messages land in the
      producing shard's outbox. *)

  val route : t -> bool
  (** Merge outboxes into destination inboxes, sequentially in shard
      order; returns whether anything is now pending. *)

  val deliver_wave : t -> round:int -> unit
  (** Parallel fault-free delivery of every pending inbox; replies go
      to the shard outboxes (the next wave). *)

  val sync_round : t -> round:int -> unit
  (** [tick] then route/deliver waves until the network drains. *)

  val snapshot_memory : t -> unit
  (** Parallel per-shard memory sums into the shard counters'
      [memory_*] fields. *)

  val reset_counters : t -> unit

  val total_counters : t -> Trace.counters
  (** Fold the shard counters, in shard order, into one fresh record
      ([sync_rounds] capped at 1 — it is a per-round flag). *)

  val state : t -> int -> P.crdt
  val all_equal : equal:(P.crdt -> P.crdt -> bool) -> t -> bool
end
