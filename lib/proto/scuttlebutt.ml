(** Scuttlebutt anti-entropy adapted to state-based CRDTs (Section V-B).

    Following the paper's adaptation: the values stored in the Scuttlebutt
    key-value store are the {e optimal deltas} produced by δ-mutators, and
    the keys are version pairs [⟨i, s⟩ ∈ I × ℕ] (origin replica, local
    sequence number).  Locally known updates are summarized by a vector
    [I ↪→ ℕ]; each synchronization step pushes the summary vector to a
    neighbor, which replies with every key-delta pair not covered by it.
    Received pairs are stored (for further propagation — nodes are only
    connected to a subset of the system) and their deltas joined into the
    local CRDT.

    - {b Scuttlebutt} (original): pairs are never deleted, so the store
      grows without bound while updates keep arriving.
    - {b Scuttlebutt-GC}: each node additionally gossips, inside its
      digests, the map [I ↪→ (I ↪→ ℕ)] recording the latest summary
      vector it has observed from {e every} node in the system; a pair
      [⟨i, s⟩] is deleted once every node's recorded summary covers [s].
      This is the paper's safe-delete variant with its quadratic metadata
      cost (Fig. 9). *)

module type CONFIG = sig
  val gc : bool
end

module Gc_config = struct
  let gc = true
end

module No_gc_config = struct
  let gc = false
end

module Make (C : Protocol_intf.CRDT) (Cfg : CONFIG) :
  Protocol_intf.PROTOCOL with type crdt = C.t and type op = C.op = struct
  type crdt = C.t
  type op = C.op

  module Im = Map.Make (Int)

  type node = {
    id : Crdt_core.Replica_id.t;
    self : int;
    total : int;  (** number of replicas in the system (for GC). *)
    neighbors : int list;
    x : C.t;
    store : C.t Im.t Im.t;  (** origin ↦ seq ↦ delta. *)
    summary : Vclock.t;  (** highest contiguous seq known per origin. *)
    knowledge : Vclock.t Im.t;
        (** GC only: node ↦ last summary vector observed from it. *)
  }

  type message =
    | Digest of { summary : Vclock.t; knowledge : Vclock.t Im.t }
    | Pairs of (int * int * C.t) list  (** (origin, seq, delta). *)

  let protocol_name = if Cfg.gc then "scuttlebutt-gc" else "scuttlebutt"

  (* Anti-entropy by digests is retry-by-design: any pair missing from a
     summary is resent on the next exchange, so loss, cuts and delays
     only cost rounds.  Crash–restart is tolerated through the durable
     checkpoint (see [crash]) plus the peers' handling of {e regressed}
     digests: a digest whose knowledge vectors went backwards never
     shrinks anyone's state — [merge_knowledge] is a pointwise max — and
     [missing_pairs] simply resends whatever the regressed summary no
     longer covers (idempotently, keyed by version pair). *)
  let capabilities =
    {
      Protocol_intf.tolerates_drop = true;
      tolerates_partition = true;
      tolerates_delay = true;
      tolerates_crash = true;
      (* A CRDT-state-only reload cannot restore the summary vector, so
         a restarted node would reuse its own sequence numbers — two
         different deltas aliased under one version pair breaks the
         versioned-store invariant.  Durable restart would need the
         summary persisted with the state (the documented checkpoint
         unit); the current store layer keeps only CRDT bytes. *)
      durable_restart = false;
    }

  (* The GC variant needs the system size to tell when everyone has seen
     a pair: deletion only fires once summaries from all [total] nodes
     cover it. *)
  let init ~id ~neighbors ~total =
    {
      id = Crdt_core.Replica_id.of_int id;
      self = id;
      total;
      neighbors;
      x = C.bottom;
      store = Im.empty;
      summary = Vclock.empty;
      knowledge = Im.empty;
    }

  let store_find origin seq store =
    match Im.find_opt origin store with
    | None -> None
    | Some m -> Im.find_opt seq m

  let store_add origin seq delta store =
    let m =
      match Im.find_opt origin store with Some m -> m | None -> Im.empty
    in
    Im.add origin (Im.add seq delta m) store

  (* Summary counts the highest contiguous prefix per origin, so advance
     it as far as consecutive sequence numbers are present. *)
  let advance_summary origin store summary =
    let m =
      match Im.find_opt origin store with Some m -> m | None -> Im.empty
    in
    let rec go s = if Im.mem (s + 1) m then go (s + 1) else s in
    Vclock.set origin (go (Vclock.get origin summary)) summary

  (* Crash–restart.  Durable: the CRDT state and the summary vector,
     checkpointed as one unit — persisting the own sequence counter with
     the state is standard Scuttlebutt practice (reusing a sequence
     number would alias two different deltas under one version pair),
     and the other components only claim knowledge the durable [x]
     actually contains.  Volatile: the pair store and the GC knowledge
     matrix.

     Losing the store does not endanger [x], but it would silence the
     node as a {e forwarder}: peers whose summaries lag would be offered
     nothing.  [recover] therefore reseeds the store with one snapshot
     pair [⟨self, s+1, x⟩] carrying the full durable state under a fresh
     sequence number; every peer's summary is below [s+1], so the next
     digest exchange pulls the snapshot and resumes dissemination.  The
     GC interplay is safe in both directions: pairs pruned before the
     crash were, by the safe-delete rule, covered by this node's own
     (durable) summary — i.e. already joined into [x] — and the rebuilt
     knowledge matrix only delays this node's own pruning until it has
     heard the whole system again. *)
  let crash n = { n with store = Im.empty; knowledge = Im.empty }

  let recover n =
    if C.is_bottom n.x then n
    else
      let seq = Vclock.get n.self n.summary + 1 in
      let store = store_add n.self seq n.x n.store in
      { n with store; summary = advance_summary n.self store n.summary }

  (* Only sound when [n] carries the durable summary vector alongside
     the state (capabilities declare [durable_restart = false]; see
     there) — drivers never call this on a fresh node, but the
     definition honors the [load] law for completeness. *)
  let load n s = recover { n with x = C.join n.x s }

  let local_update n op =
    let delta = C.delta_mutate op n.id n.x in
    if C.is_bottom delta then n
    else
      let seq = Vclock.get n.self n.summary + 1 in
      let store = store_add n.self seq delta n.store in
      {
        n with
        x = C.join n.x delta;
        store;
        summary = advance_summary n.self store n.summary;
      }

  (* GC: a pair ⟨origin, seq⟩ may be deleted once the recorded summaries
     of every known node cover seq — and we have heard from the whole
     system. *)
  let prune n =
    if not Cfg.gc then n
    else
      let members = Im.cardinal n.knowledge in
      if n.total = 0 || members < n.total then n
      else
        let covered origin seq =
          Im.for_all (fun _ summary -> Vclock.get origin summary >= seq)
            n.knowledge
        in
        let store =
          Im.mapi
            (fun origin m -> Im.filter (fun seq _ -> not (covered origin seq)) m)
            n.store
        in
        { n with store }

  let merge_knowledge n ~src summary knowledge =
    if not Cfg.gc then n
    else
      let merge_one node vec acc =
        let prev =
          match Im.find_opt node acc with Some v -> v | None -> Vclock.empty
        in
        Im.add node (Vclock.merge prev vec) acc
      in
      let knowledge = Im.fold merge_one knowledge n.knowledge in
      let knowledge = merge_one src summary knowledge in
      let knowledge = merge_one n.self n.summary knowledge in
      prune { n with knowledge }

  let tick n =
    let digest = Digest { summary = n.summary; knowledge = n.knowledge } in
    (n, List.map (fun j -> (j, digest)) n.neighbors)

  let missing_pairs n remote_summary =
    Im.fold
      (fun origin m acc ->
        Im.fold
          (fun seq delta acc ->
            if seq > Vclock.get origin remote_summary then
              (origin, seq, delta) :: acc
            else acc)
          m acc)
      n.store []

  let handle n ~src msg =
    match msg with
    | Digest { summary; knowledge } ->
        let pairs = missing_pairs n summary in
        let n = merge_knowledge n ~src summary knowledge in
        if pairs = [] then (n, []) else (n, [ (src, Pairs pairs) ])
    | Pairs pairs ->
        let n =
          List.fold_left
            (fun n (origin, seq, delta) ->
              if store_find origin seq n.store <> None then n
              else
                let store = store_add origin seq delta n.store in
                {
                  n with
                  x = C.join n.x delta;
                  store;
                  summary = advance_summary origin store n.summary;
                })
            n pairs
        in
        (prune n, [])

  let state n = n.x

  let payload_weight = function
    | Digest _ -> 0
    | Pairs pairs ->
        List.fold_left (fun acc (_, _, d) -> acc + C.weight d) 0 pairs

  let metadata_weight = function
    | Digest { summary; knowledge } ->
        Vclock.cardinal summary
        + Im.fold (fun _ v acc -> acc + Vclock.cardinal v) knowledge 0
    | Pairs pairs -> 2 * List.length pairs

  let payload_bytes = function
    | Digest _ -> 0
    | Pairs pairs ->
        List.fold_left (fun acc (_, _, d) -> acc + C.byte_size d) 0 pairs

  let metadata_bytes = function
    | Digest { summary; knowledge } ->
        Vclock.byte_size summary
        + Im.fold
            (fun _ v acc ->
              acc + Crdt_core.Replica_id.id_bytes + Vclock.byte_size v)
            knowledge 0
    | Pairs pairs -> List.length pairs * Vclock.entry_bytes

  let message_codec =
    let open Crdt_wire.Codec in
    let knowledge_codec =
      conv Im.bindings
        (fun l -> List.fold_left (fun m (k, v) -> Im.add k v m) Im.empty l)
        (list (pair varint Vclock.codec))
    in
    union ~name:"scuttlebutt_message"
      [
        case 0 (pair Vclock.codec knowledge_codec)
          (function
            | Digest { summary; knowledge } -> Some (summary, knowledge)
            | Pairs _ -> None)
          (fun (summary, knowledge) -> Digest { summary; knowledge });
        case 1
          (list (triple varint varint C.codec))
          (function Pairs pairs -> Some pairs | Digest _ -> None)
          (fun pairs -> Pairs pairs);
      ]

  let message_wire_bytes m =
    Crdt_wire.Frame.framed_size
      ~payload_len:(Crdt_wire.Codec.encoded_size message_codec m)

  let stored_deltas n =
    Im.fold
      (fun _ m acc -> Im.fold (fun _ d acc -> C.weight d + acc) m acc)
      n.store 0

  let memory n =
    let metadata_bytes =
      Vclock.byte_size n.summary
      + Im.fold
          (fun _ v acc ->
            acc + Crdt_core.Replica_id.id_bytes + Vclock.byte_size v)
          n.knowledge 0
    in
    {
      Protocol_intf.weight =
        C.weight n.x + stored_deltas n + Vclock.cardinal n.summary
        + Im.fold (fun _ v acc -> acc + Vclock.cardinal v) n.knowledge 0;
      bytes =
        C.byte_size n.x
        + Im.fold
            (fun _ m acc ->
              Im.fold
                (fun _ d acc -> acc + C.byte_size d + Vclock.entry_bytes)
                m acc)
            n.store 0
        + metadata_bytes;
      metadata_bytes;
    }
end
