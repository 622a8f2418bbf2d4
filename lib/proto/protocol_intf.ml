(** Common interface implemented by every synchronization protocol.

    A protocol instance manages one replica (a {e node}) of one CRDT.  The
    driver (simulator or real transport) is expected to:

    - call {!PROTOCOL.local_update} whenever the application performs an
      operation;
    - call {!PROTOCOL.tick} once per synchronization interval, sending the
      returned messages to the designated neighbors;
    - call {!PROTOCOL.handle} on message receipt, sending any returned
      replies.

    Messages may be duplicated or reordered by the driver: every protocol
    here tolerates both (state-based and delta-based by idempotent joins,
    Scuttlebutt by versioned pairs, op-based by per-operation identifiers).
    Harsher fault classes — message loss, link partitions, per-link delay
    and node crash–restart — are {e declared capabilities}
    ({!PROTOCOL.capabilities}): a driver injecting a fault class must
    check the protocol tolerates it (the simulator rejects the plan up
    front otherwise), and every protocol implements the
    {!PROTOCOL.crash}/{!PROTOCOL.recover} split describing exactly which
    state survives a restart.

    The accounting functions mirror the paper's measurements: weights
    count lattice elements (the metric of Table I) and byte sizes estimate
    wire/memory footprint (Fig. 9, Fig. 11). *)

(** Fault classes a protocol declares it tolerates (beyond duplication
    and reordering, which are mandatory).  "Tolerates" means: a run
    injecting only that fault class still converges once the fault
    schedule ends — lost or cut messages are eventually compensated by
    retransmission, anti-entropy or explicit recovery. *)
type capabilities = {
  tolerates_drop : bool;
      (** probabilistic message loss (retry-by-design protocols). *)
  tolerates_partition : bool;
      (** scheduled link cuts that heal at a known round. *)
  tolerates_delay : bool;
      (** messages held a bounded number of rounds, then delivered. *)
  tolerates_crash : bool;
      (** node restart losing volatile protocol state but keeping the
          durable CRDT state (see {!PROTOCOL.crash}). *)
  durable_restart : bool;
      (** whole-process restart from a durable image holding {e only}
          the CRDT state (see {!PROTOCOL.load}).  Strictly stronger
          than [tolerates_crash]: Scuttlebutt, for instance, survives
          an in-memory restart (its documented durable unit includes
          the summary vector) but not a CRDT-state-only reload — a
          fresh summary would reuse sequence numbers and alias
          different deltas under one version pair. *)
}

(** What a node keeps resident, measured in one walk ({!PROTOCOL.memory}). *)
type memory = {
  weight : int;
      (** elements: CRDT state plus buffered deltas/ops plus stored
          metadata entries (the metric of Fig. 10). *)
  bytes : int;
  metadata_bytes : int;
      (** bytes of synchronization metadata (Fig. 9). *)
}

module type PROTOCOL = sig
  type crdt
  type op
  type node
  type message

  val protocol_name : string

  val capabilities : capabilities
  (** Fault classes this protocol (in its current configuration)
      tolerates; drivers must not inject others. *)

  val init : id:int -> neighbors:int list -> total:int -> node
  (** Fresh replica [id] whose synchronization partners are [neighbors]
      (ids used as message destinations); [total] is the number of
      replicas in the system (needed by Scuttlebutt-GC's safe-delete
      rule; other protocols ignore it). *)

  val local_update : node -> op -> node
  (** Apply an application-level operation at this replica. *)

  val tick : node -> node * (int * message) list
  (** One synchronization step: returns the messages (destination,
      payload) to push to neighbors. *)

  val handle : node -> src:int -> message -> node * (int * message) list
  (** Process a received message; may produce immediate replies (used by
      the digest/reply exchange of Scuttlebutt). *)

  val crash : node -> node
  (** The node fails: volatile protocol state (buffers, caches, session
      metadata) is lost; durable state (at least the CRDT state [xᵢ],
      plus whatever the protocol documents as checkpointed with it)
      survives.  [state (crash n) = state n] for every protocol. *)

  val recover : node -> node
  (** The node restarts from the durable image left by {!crash}:
      rebuilds whatever working state it can and initiates the
      protocol's recovery exchange (if any) on subsequent {!tick}s. *)

  val load : node -> crdt -> node
  (** The node restarts as a {e fresh process} whose only input is a
      CRDT state recovered from durable storage: [load (init ...) s]
      installs [s] as the local state and arms the same recovery
      exchange {!recover} would.  The in-memory crash model keeps the
      full pre-crash [xᵢ] by fiat; here the storage layer supplies a
      lattice prefix of it ([s ⊑] pre-crash state — a torn log tail may
      have dropped the last delta), and the recovery exchange plus
      ordinary anti-entropy close the gap.  Law: [state (load n s) =
      join (state n) s]. *)

  val state : node -> crdt
  (** Current local lattice state [xᵢ]. *)

  val payload_weight : message -> int
  (** Lattice elements carried by the message (0 for pure digests). *)

  val metadata_weight : message -> int
  (** Metadata units carried (vector entries, version pairs, origin
      tags). *)

  val payload_bytes : message -> int
  val metadata_bytes : message -> int

  val message_codec : message Crdt_wire.Codec.t
  (** Binary wire codec for protocol messages, built from the CRDT's
      composition codec plus the protocol's own framing (DESIGN.md §6).
      Total: decoding returns [Error] on truncated/corrupt input. *)

  val message_wire_bytes : message -> int
  (** Exact number of bytes the message occupies on the wire, framed
      (header + varint length prefix + encoded payload) — the exact
      counterpart of the [payload_bytes + metadata_bytes] estimate. *)

  val memory : node -> memory
  (** What the node keeps resident, all three figures at once. *)
end

(** Convenience alias for what protocol functors consume. *)
module type CRDT = Crdt_core.Lattice_intf.CRDT
