(** Operation-based synchronization over a store-and-forward causal
    broadcast middleware (Section V-B).

    Each operation is tagged with a vector clock summarizing its causal
    past; receivers delay delivery until every causally preceding
    operation has been delivered.  Because the topology is not all-to-all,
    the middleware stores and forwards: an operation seen for the first
    time enters a transmission buffer and is propagated at the next
    synchronization step to every neighbor not yet known to have seen it;
    receiving a duplicate only widens the seen-set (the paper calls this
    "the best possible implementation of such a middleware").

    Operations carry their origin replica, so applying them through the
    CRDT's classic mutator at the origin's identity reproduces the
    origin's update (e.g. a GCounter increment from replica A bumps entry
    A wherever it is delivered).  No operation compression is attempted —
    the paper highlights that its absence is precisely what makes
    op-based behave poorly on GCounter-like workloads. *)

module Make (C : Protocol_intf.CRDT) :
  Protocol_intf.PROTOCOL with type crdt = C.t and type op = C.op = struct
  type crdt = C.t
  type op = C.op

  module Opid = struct
    type t = int * int (* origin, per-origin sequence number *)

    let compare = compare
  end

  module Opmap = Map.Make (Opid)
  module Iset = Set.Make (Int)

  type tagged = {
    origin : int;
    seq : int;
    tag : Vclock.t;  (** causal past: the origin's clock at emission. *)
    operation : op;
  }

  type entry = { msg : tagged; seen : Iset.t }

  type node = {
    id : Crdt_core.Replica_id.t;
    self : int;
    neighbors : int list;
    x : C.t;
    clock : Vclock.t;  (** delivered operations per origin. *)
    pending : tagged Opmap.t;  (** received, awaiting causal delivery. *)
    tbuf : entry Opmap.t;  (** transmission buffer with seen-sets. *)
  }

  type message = tagged list

  let protocol_name = "op-based"

  (* [tick] optimistically marks forwarded operations as seen, assuming
     reliable channels, so a dropped or partition-cut batch is never
     retransmitted: no drop/partition tolerance.  Delay is fine — a held
     batch arrives intact and the causal buffer reorders it.  Crash is
     not tolerated either: the store-and-forward custody buffers are
     volatile, and an operation relayed through the victim that peers
     already marked as seen is lost for every replica behind it. *)
  let capabilities =
    {
      Protocol_intf.tolerates_drop = false;
      tolerates_partition = false;
      tolerates_delay = true;
      tolerates_crash = false;
      durable_restart = false;
    }

  (* Durable: the CRDT state together with the delivered-clock — they
     are checkpointed as one unit, because a clock regression would let
     an already-applied operation be redelivered and double-applied
     through a non-idempotent mutator.  Volatile: the causal-delivery
     and custody buffers. *)
  let crash n = { n with pending = Opmap.empty; tbuf = Opmap.empty }
  let recover n = n

  (* Crash is not tolerated (see capabilities), so no driver restarts
     this protocol from disk; the state-join definition keeps the
     signature total and the [load] law intact. *)
  let load n s = { n with x = C.join n.x s }

  let init ~id ~neighbors ~total:_ =
    {
      id = Crdt_core.Replica_id.of_int id;
      self = id;
      neighbors;
      x = C.bottom;
      clock = Vclock.empty;
      pending = Opmap.empty;
      tbuf = Opmap.empty;
    }

  let deliver n (t : tagged) =
    {
      n with
      x = C.mutate t.operation (Crdt_core.Replica_id.of_int t.origin) n.x;
      clock = Vclock.set t.origin t.seq n.clock;
    }

  (* Drain the pending set: deliver every operation whose causal past is
     satisfied, repeating until a fixpoint. *)
  let rec drain n =
    let deliverable =
      Opmap.filter
        (fun _ t ->
          Vclock.deliverable ~origin:t.origin ~tag:t.tag ~local:n.clock)
        n.pending
    in
    if Opmap.is_empty deliverable then n
    else
      let n =
        Opmap.fold
          (fun key t n ->
            let n = deliver n t in
            { n with pending = Opmap.remove key n.pending })
          deliverable n
      in
      drain n

  let local_update n op =
    (* prepare-update phase: ship the downstream form, whose replay at a
       causally consistent remote reproduces this replica's effect *)
    let op = C.prepare op (Crdt_core.Replica_id.of_int n.self) n.x in
    let seq = Vclock.get n.self n.clock + 1 in
    let tag = Vclock.set n.self seq n.clock in
    let t = { origin = n.self; seq; tag; operation = op } in
    let n = deliver n t in
    let entry = { msg = t; seen = Iset.singleton n.self } in
    { n with tbuf = Opmap.add (n.self, seq) entry n.tbuf }

  let tick n =
    (* For each neighbor, forward every buffered operation it has not
       seen; optimistically mark it seen so the next tick does not repeat
       the transmission (channels are reliable in the experiments). *)
    let msgs, tbuf =
      List.fold_left
        (fun (msgs, tbuf) j ->
          let for_j =
            Opmap.fold
              (fun _ e acc ->
                if Iset.mem j e.seen then acc else e.msg :: acc)
              tbuf []
          in
          if for_j = [] then (msgs, tbuf)
          else
            let tbuf =
              Opmap.map
                (fun e ->
                  if Iset.mem j e.seen then e
                  else { e with seen = Iset.add j e.seen })
                tbuf
            in
            ((j, List.rev for_j) :: msgs, tbuf))
        ([], n.tbuf) n.neighbors
    in
    (* Evict operations seen by every neighbor (and ourselves). *)
    let everyone = Iset.of_list (n.self :: n.neighbors) in
    let tbuf = Opmap.filter (fun _ e -> not (Iset.subset everyone e.seen)) tbuf in
    ({ n with tbuf }, msgs)

  let handle n ~src batch =
    let n =
      List.fold_left
        (fun n (t : tagged) ->
          let key = (t.origin, t.seq) in
          let already_delivered = Vclock.get t.origin n.clock >= t.seq in
          match Opmap.find_opt key n.tbuf with
          | Some e ->
              (* Duplicate: only record that [src] has seen it. *)
              let e = { e with seen = Iset.add src e.seen } in
              { n with tbuf = Opmap.add key e n.tbuf }
          | None ->
              if already_delivered then n
              else
                let seen = Iset.of_list [ n.self; src; t.origin ] in
                let n =
                  { n with tbuf = Opmap.add key { msg = t; seen } n.tbuf }
                in
                { n with pending = Opmap.add key t n.pending })
        n batch
    in
    (drain n, [])

  let state n = n.x

  let payload_weight batch =
    List.fold_left (fun acc t -> acc + C.op_weight t.operation) 0 batch

  (* Each operation is tagged with a full vector clock. *)
  let metadata_weight batch =
    List.fold_left (fun acc t -> acc + Vclock.cardinal t.tag + 1) 0 batch

  let payload_bytes batch =
    List.fold_left (fun acc t -> acc + C.op_byte_size t.operation) 0 batch

  let metadata_bytes batch =
    List.fold_left
      (fun acc t ->
        acc + Vclock.byte_size t.tag + Crdt_core.Replica_id.id_bytes + 8)
      0 batch

  let message_codec =
    let open Crdt_wire.Codec in
    let tagged_codec =
      conv
        (fun t -> ((t.origin, t.seq), (t.tag, t.operation)))
        (fun ((origin, seq), (tag, operation)) -> { origin; seq; tag; operation })
        (pair (pair varint varint) (pair Vclock.codec C.op_codec))
    in
    list tagged_codec

  let message_wire_bytes m =
    Crdt_wire.Frame.framed_size
      ~payload_len:(Crdt_wire.Codec.encoded_size message_codec m)

  let buffered_ops n =
    Opmap.fold (fun _ e acc -> acc + C.op_weight e.msg.operation) n.tbuf 0

  let memory n =
    let metadata_bytes =
      Vclock.byte_size n.clock
      + Opmap.fold (fun _ e acc -> acc + Vclock.byte_size e.msg.tag) n.tbuf 0
      + Opmap.fold (fun _ t acc -> acc + Vclock.byte_size t.tag) n.pending 0
    in
    {
      Protocol_intf.weight =
        C.weight n.x + buffered_ops n
        + Opmap.fold (fun _ e acc -> acc + Vclock.cardinal e.msg.tag) n.tbuf 0
        + Opmap.fold
            (fun _ t acc -> acc + Vclock.cardinal t.tag + 1)
            n.pending 0
        + Vclock.cardinal n.clock;
      bytes =
        C.byte_size n.x
        + Opmap.fold
            (fun _ e acc -> acc + C.op_byte_size e.msg.operation)
            n.tbuf 0
        + metadata_bytes;
      metadata_bytes;
    }
end
