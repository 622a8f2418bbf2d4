(** Per-user replication of the Retwis store, matching the paper's
    deployment of ~30 K independent CRDT objects (Section V-C).

    Each user's {!User_state} is an independent replicated object with its
    own δ-buffer and inflation check; messages between two nodes bundle
    the per-user payloads (see [Crdt_proto.Sharded]). *)

module Key = struct
  type t = int

  let compare = Int.compare
  let byte_size _ = 8
  let codec = Crdt_wire.Codec.int
end

(** Sharded delta-based synchronization of the Retwis store under the
    given Algorithm 1 configuration (classic / BP / RR / BP+RR). *)
module Delta (Cfg : Crdt_proto.Delta_sync.CONFIG) =
  Crdt_proto.Sharded.Make (Key) (User_state)
    (Crdt_proto.Delta_sync.Make (User_state) (Cfg))
