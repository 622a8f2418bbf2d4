(** Transport-agnostic replica state machine.

    One {!Make.t} value is one replica of one protocol: it owns the
    [P.node], applies operations, runs synchronization ticks, handles
    received messages, and survives crash/restart — reporting every step
    to a {!Trace.sink}.  Transports stay thin: the simulator
    ([Crdt_sim.Runner]), the socket runtime and the model checker all
    reduce to "move the messages the driver [emit]s and feed back what
    arrives", so the apply → tick → ship → handle → replies cycle (and
    its accounting) is defined exactly once.

    Outbound messages are reported through an [emit] callback rather
    than returned as lists, so transports can push them straight into
    their own buffers without intermediate allocation. *)

module Make (P : Crdt_proto.Protocol_intf.PROTOCOL) : sig
  type t

  val create :
    ?sink:Trace.sink ->
    ?exact_bytes:bool ->
    ?changed:(P.crdt -> P.crdt -> bool) ->
    id:int ->
    neighbors:int list ->
    total:int ->
    unit ->
    t
  (** A fresh replica.  [exact_bytes] (default [true]) controls whether
      [Send]/[Recv] events carry exact framed wire sizes
      ([P.message_wire_bytes]) or 0.  [changed] enables dirty tracking:
      when provided, {!dirty} reports whether any delivery since the last
      {!clear_dirty} changed the CRDT state per [changed old new] (used
      by the socket runtime's quiescence detection; costs one state
      comparison per delivery, so the simulator leaves it off). *)

  val state : t -> P.crdt
  val down : t -> bool

  val dirty : t -> bool
  (** True when operations were applied or (under [changed]) a delivery
      inflated the state since the last {!clear_dirty}. *)

  val clear_dirty : t -> unit

  val apply : t -> P.op list -> int
  (** Apply local operations; returns how many were applied (0 when the
      replica is down — a crashed node performs no operations). *)

  val ops_applied : t -> int
  (** Cumulative count over the replica's lifetime. *)

  val tick : t -> round:int -> emit:(dest:int -> P.message -> unit) -> unit
  (** One synchronization step: runs [P.tick], reports a [Tick] event and
      a [Send] per outbound message, and hands each message to [emit].
      No-op while down. *)

  val deliver :
    t ->
    round:int ->
    src:int ->
    ?copies:int ->
    ?wire_bytes:int ->
    emit:(dest:int -> P.message -> unit) ->
    P.message ->
    unit
  (** Process a received message: one [Recv] event (with delivery-cost
      accounting), then [copies] (default 1 — more under duplication
      faults) applications of [P.handle], each reported as a [Deliver];
      replies go through [emit] with their own [Send] events.  The caller
      must not deliver to a down replica (messages to crashed nodes are
      the transport's drops).  [wire_bytes] is the message's framed size
      when the transport already knows it (a socket read the frame);
      without it, exact accounting re-encodes the message to size it. *)

  val crash : t -> round:int -> unit
  (** [P.crash] + mark down + [Crash] event. *)

  val recover : t -> round:int -> unit
  (** [P.recover] + mark up (and dirty) + [Recover] event. *)

  val set_persist : t -> (P.crdt -> unit) -> unit
  (** Attach a durability sink.  The driver tracks which steps may have
      inflated the CRDT state; {!sync_store} hands the current state to
      the sink when (and only when) something happened since the last
      sync.  What "persisting" means — appending a delta against the
      last written image, rolling a checkpoint — is entirely the
      sink's business (see [lib/store] and [bin/crdtsync.ml]); the
      driver stays storage-agnostic.  This is the one seam the
      simulator, the socket runtime and the model checker share. *)

  val sync_store : t -> unit
  (** Durability point: invoke the {!set_persist} sink with the current
      state if any apply/deliver/recover since the last call may have
      changed it.  Transports call this once per tick (sockets) or
      exploration step (checker).  No-op without a sink. *)

  val restart_from : t -> P.crdt -> unit
  (** Rebuild this replica as a fresh process restarted from durable
      storage: replaces the node with [P.load (P.init ...) s] — losing
      {e all} volatile protocol state, unlike {!recover} which keeps
      the in-memory durable image — marks it up and dirty.  [s] is
      what the storage layer recovered (checkpoint ⊔ logged deltas), a
      lattice prefix of the pre-crash state. *)

  val finish : t -> round:int -> unit
  (** Report a [Done] event (the replica converged / agreed to stop). *)

  val memory : t -> Crdt_proto.Protocol_intf.memory
  (** [P.memory] of the replica's node. *)
end
