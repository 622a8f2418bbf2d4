(** State-based synchronization (Section II): each replica periodically
    ships its {e full} lattice state to every neighbor, which joins it
    into its own.

    No synchronization metadata is kept (optimal memory, Fig. 10) but
    transmission grows with the state. *)

module Make (C : Protocol_intf.CRDT) :
  Protocol_intf.PROTOCOL with type crdt = C.t and type op = C.op = struct
  type crdt = C.t
  type op = C.op

  type node = {
    id : Crdt_core.Replica_id.t;
    neighbors : int list;
    x : C.t;
  }

  type message = C.t

  let protocol_name = "state-based"

  (* Shipping the full state every tick is a retransmission of
     everything: loss, cuts, delays and restarts are all repaired by the
     next delivered tick.  The only state is the durable CRDT itself, so
     crash/recover are identities. *)
  let capabilities =
    {
      Protocol_intf.tolerates_drop = true;
      tolerates_partition = true;
      tolerates_delay = true;
      tolerates_crash = true;
      durable_restart = true;
    }

  let crash n = n
  let recover n = n
  let load n s = { n with x = C.join n.x s }

  let init ~id ~neighbors ~total:_ =
    { id = Crdt_core.Replica_id.of_int id; neighbors; x = C.bottom }

  let local_update n op = { n with x = C.mutate op n.id n.x }
  let tick n = (n, List.map (fun j -> (j, n.x)) n.neighbors)
  let handle n ~src:_ d = ({ n with x = C.join n.x d }, [])

  let state n = n.x
  let payload_weight d = C.weight d
  let metadata_weight _ = 0
  let payload_bytes d = C.byte_size d
  let metadata_bytes _ = 0
  let message_codec = C.codec

  let message_wire_bytes d = Crdt_wire.Frame.value_size message_codec d

  let memory n =
    {
      Protocol_intf.weight = C.weight n.x;
      bytes = C.byte_size n.x;
      metadata_bytes = 0;
    }
end
