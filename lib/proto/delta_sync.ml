(** Delta-based synchronization — Algorithm 1 of the paper, covering both
    columns: the classic algorithm of Almeida et al. [13,14] and the
    improved version with the BP and RR optimizations.

    State per replica: the lattice state [xᵢ] and a δ-buffer [Bᵢ] of
    δ-groups, each tagged with the identifier of the neighbor it came from
    (or the replica itself for local mutations).

    - {b Classic} (lines without highlight): [tick] joins the whole buffer
      into one δ-group and sends it to every neighbor, then clears the
      buffer; [handle d] stores [d] whenever [d ⋢ xᵢ].
    - {b BP} (avoid back-propagation): [tick] filters out, for destination
      [j], the buffer entries whose origin is [j] (line 11, right column).
    - {b RR} (remove redundant state): [handle d] first extracts
      [Δ(d, xᵢ)] — the part of the received δ-group that strictly inflates
      the local state — and stores only that, if non-bottom (lines 15–16,
      right column).

    The paper assumes channels that may duplicate and reorder but not drop
    messages, clearing the buffer after each synchronization step; both
    behaviours are safe here because δ-groups are joined idempotently.
    {!Make} additionally supports the footnote's ack-based variant for
    lossy channels ([ack_mode]): buffer entries carry sequence numbers and
    are only evicted once every neighbor acknowledged them.

    {b Crash–recovery.}  The δ-buffer, per-origin groups, sequence
    counters and ack vector are volatile; only the CRDT state [xᵢ] is
    durable.  A restarted replica therefore cannot replay lost buffer
    entries — in ack mode the unacked entries themselves are gone — but
    everything they carried is, by construction, below the durable [xᵢ].
    [recover] runs the state-driven reconciliation of the authors'
    companion partition paper [30] against each neighbor: the node
    keeps a [need_sync] set and sends a [SyncReq] carrying its full
    durable state on every tick until the neighbor answers.  The
    neighbor absorbs the request like a received δ-group (so the
    restarted node's unacked data re-enters {e its} buffer and
    propagates onward, rebuilding the per-origin δ-groups) and always
    replies [SyncResp Δ(xⱼ, received)] — the optimal delta covering
    every message the victim missed while down; an empty Δ still flows
    back as the up-to-date marker.  Retrying the request until answered
    makes the exchange safe under loss, so crash tolerance holds in
    every configuration; drop/partition tolerance additionally needs
    the ack machinery for ordinary traffic, hence is declared by
    [ack_mode] only.  An [Ack] whose sequence number exceeds [next_seq]
    can only refer to a pre-crash incarnation (sequence numbers restart
    at 0) and is ignored.  That guard does {e not} close the
    stale-incarnation hole: a delayed pre-crash [Ack] whose sequence
    number is at most the new [next_seq] is honored and evicts fresh
    entries that were never sent, so ack mode can fail to converge
    after a crash.  The replayable schedule
    [op:0,tick:0,dlv:0:1,dly:1:0,crash:0,rec:0,tick:0,dlv:0:1,dlv:1:0,op:0,rel:1:0,dlv:1:0]
    shows it; closing the hole needs an incarnation tag on ack-mode
    [Delta]/[Ack], which changes the wire format.

    {b Buffer representation.}  In the common (non-ack) mode the δ-buffer,
    BP's origin filter and RR's extraction are {!Delta_buffer} — shared
    with {!Conflict_sync}, so the paper's two optimizations are written
    once.  Only [ack_mode] keeps a seq-tagged entry list here, because
    selective eviction needs per-entry sequence numbers.  The RR
    extraction uses the structural
    {!Crdt_core.Lattice_intf.DECOMPOSABLE.delta}, so no received δ-group
    is ever decomposed into singletons on the hot path. *)

type config = { bp : bool; rr : bool; ack_mode : bool }

let classic = { bp = false; rr = false; ack_mode = false }
let bp_only = { bp = true; rr = false; ack_mode = false }
let rr_only = { bp = false; rr = true; ack_mode = false }
let bp_rr = { bp = true; rr = true; ack_mode = false }

let config_name c =
  let base =
    match (c.bp, c.rr) with
    | false, false -> "delta-classic"
    | true, false -> "delta-bp"
    | false, true -> "delta-rr"
    | true, true -> "delta-bp+rr"
  in
  if c.ack_mode then base ^ "-ack" else base

module type CONFIG = sig
  val config : config
end

module Make (C : Protocol_intf.CRDT) (Cfg : CONFIG) :
  Protocol_intf.PROTOCOL with type crdt = C.t and type op = C.op = struct
  module Buf = Delta_buffer.Make (C)
  module Iset = Set.Make (Int)

  type crdt = C.t
  type op = C.op

  type entry = {
    delta : C.t;
    origin : int;  (** neighbor the δ-group came from, or self. *)
    seq : int;  (** sequence number, used only in ack mode. *)
  }

  type node = {
    id : Crdt_core.Replica_id.t;
    self : int;
    neighbors : int list;
    x : C.t;
    buf : Buf.t;  (** [Bᵢ] in non-ack mode; stays empty in ack mode. *)
    entries : entry list;  (** [Bᵢ] in ack mode only, newest first. *)
    next_seq : int;
    acked : Vclock.t;  (** ack mode: highest seq acked per neighbor. *)
    need_sync : Iset.t;
        (** neighbors still owing a [SyncResp] after a restart; a
            [SyncReq] is (re)sent to each on every tick. *)
  }

  type message =
    | Delta of { group : C.t; seq : int }
    | Ack of { seq : int }
    | SyncReq of { state : C.t }
        (** crash recovery: the restarted replica's full durable state. *)
    | SyncResp of { group : C.t }
        (** crash recovery: [Δ(xⱼ, received)], possibly bottom. *)

  let protocol_name = config_name Cfg.config
  let cfg = Cfg.config

  (* Ordinary traffic survives loss and cuts only with the ack-based
     retransmission machinery; delay loses nothing, and crash recovery
     has its own retried SyncReq/SyncResp exchange (see above). *)
  let capabilities =
    {
      Protocol_intf.tolerates_drop = cfg.ack_mode;
      tolerates_partition = cfg.ack_mode;
      tolerates_delay = true;
      tolerates_crash = true;
      durable_restart = true;
    }

  let init ~id ~neighbors ~total:_ =
    {
      id = Crdt_core.Replica_id.of_int id;
      self = id;
      neighbors;
      x = C.bottom;
      buf = Buf.empty ~bp:cfg.bp;
      entries = [];
      next_seq = 0;
      acked = Vclock.empty;
      need_sync = Iset.empty;
    }

  (* Durable: [x].  Volatile: the δ-buffer in all its representations,
     the sequence counter and the ack vector (a fresh incarnation
     restarts numbering at 0). *)
  let crash n =
    {
      n with
      buf = Buf.clear n.buf;
      entries = [];
      next_seq = 0;
      acked = Vclock.empty;
      need_sync = Iset.empty;
    }

  let recover n = { n with need_sync = Iset.of_list n.neighbors }

  (* Restart-from-disk: install the recovered state and run the same
     retried SyncReq/SyncResp exchange as an in-memory restart — it is
     bidirectional, so it also re-propagates any tail deltas the log
     kept but the rest of the cluster never saw. *)
  let load n s = recover { n with x = C.join n.x s }

  (* fun store(s, o) — lines 18-20: join into the local state and into
     the δ-buffer (non-ack), or cons a seq-tagged entry (ack).  Either
     way the cost is independent of the buffer length. *)
  let store n delta origin =
    let n = { n with x = C.join n.x delta; next_seq = n.next_seq + 1 } in
    if cfg.ack_mode then
      { n with entries = { delta; origin; seq = n.next_seq - 1 } :: n.entries }
    else { n with buf = Buf.add n.buf ~origin delta }

  let local_update n op =
    let delta = C.delta_mutate op n.id n.x in
    if C.is_bottom delta then n else store n delta n.self

  (* Ack mode: δ-group for destination j — fold of the entries j still
     needs, minus (under BP) those that came from j. *)
  let group_for_ack n j =
    List.fold_left
      (fun acc e ->
        if cfg.bp && e.origin = j then acc
        else if e.seq < Vclock.get j n.acked then acc
        else C.join acc e.delta)
      C.bottom n.entries

  let tick n =
    (* Recovery first: keep requesting reconciliation from every
       neighbor that has not answered yet (retried until the response
       arrives, which makes the exchange loss-safe). *)
    let sync_msgs =
      if Iset.is_empty n.need_sync then []
      else
        let req = SyncReq { state = n.x } in
        List.filter_map
          (fun j -> if Iset.mem j n.need_sync then Some (j, req) else None)
          n.neighbors
    in
    let n, msgs =
      if cfg.ack_mode then
        let msgs =
          List.filter_map
            (fun j ->
              let g = group_for_ack n j in
              if C.is_bottom g then None
              else Some (j, Delta { group = g; seq = n.next_seq }))
            n.neighbors
        in
        (* Keep entries until every neighbor that must receive them (under
           BP, everyone but their origin) has acked past them. *)
        let entries =
          List.filter
            (fun e ->
              List.exists
                (fun j ->
                  (not (cfg.bp && e.origin = j))
                  && e.seq >= Vclock.get j n.acked)
                n.neighbors)
            n.entries
        in
        ({ n with entries }, msgs)
      else
        let msgs =
          Buf.push n.buf ~neighbors:n.neighbors (fun group ->
              Delta { group; seq = n.next_seq })
        in
        let buf = Buf.clear n.buf in
        ((if buf == n.buf then n else { n with buf }), msgs)
    in
    (n, sync_msgs @ msgs)

  (* Absorb a received δ-group/state according to the configuration
     (RR or classic, see {!Delta_buffer.Make.extract}).  Stored with [src]
     as origin, so it re-enters the buffer and propagates. *)
  let absorb n ~src d =
    match Buf.extract ~rr:cfg.rr d n.x with
    | Some d -> store n d src
    | None -> n

  let handle n ~src d =
    match d with
    | Ack { seq } ->
        (* A seq we never issued can only come from a pre-crash
           incarnation of this replica (numbering restarted at 0):
           honoring it would evict fresh unacked entries.  An older
           incarnation's ack at or below [next_seq] still gets through
           (see the crash–recovery note above). *)
        if seq > n.next_seq then (n, [])
        else
          let acked =
            Vclock.set src (max seq (Vclock.get src n.acked)) n.acked
          in
          ({ n with acked }, [])
    | Delta { group = d; seq } ->
        let ack = if cfg.ack_mode then [ (src, Ack { seq }) ] else [] in
        (absorb n ~src d, ack)
    | SyncReq { state = s } ->
        (* State-driven reconciliation leg 2: compute what the restarted
           replica is missing before absorbing its state, and always
           answer — an empty Δ is the up-to-date marker that clears the
           requester's need_sync entry. *)
        let missing = C.delta n.x s in
        (absorb n ~src s, [ (src, SyncResp { group = missing }) ])
    | SyncResp { group = g } ->
        let n = { n with need_sync = Iset.remove src n.need_sync } in
        if C.is_bottom g then (n, []) else (absorb n ~src g, [])

  let state n = n.x

  (* A message's payload is one lattice state, whose size its container
     keeps. *)
  let payload f = function
    | Delta { group = g; _ } | SyncReq { state = g } | SyncResp { group = g }
      ->
        f g
    | Ack _ -> 0

  let payload_weight = payload C.weight

  (* Classic tags nothing; BP/ack tag each message with one sequence
     number (the paper's "a sequence number per neighbor" metadata). *)
  let tagged = cfg.bp || cfg.ack_mode

  let metadata_weight = function
    | Delta _ -> if tagged then 1 else 0
    | Ack _ -> 1
    | SyncReq _ | SyncResp _ -> 1 (* recovery marker. *)

  let payload_bytes = payload C.byte_size

  let metadata_bytes = function
    | Delta _ -> if tagged then 8 else 0
    | Ack _ -> 8
    | SyncReq _ | SyncResp _ -> 8

  let message_codec =
    let open Crdt_wire.Codec in
    union ~name:"delta_sync_message"
      [
        case 0 (pair C.codec varint)
          (function Delta { group; seq } -> Some (group, seq) | _ -> None)
          (fun (group, seq) -> Delta { group; seq });
        case 1 varint
          (function Ack { seq } -> Some seq | _ -> None)
          (fun seq -> Ack { seq });
        case 2 C.codec
          (function SyncReq { state } -> Some state | _ -> None)
          (fun state -> SyncReq { state });
        case 3 C.codec
          (function SyncResp { group } -> Some group | _ -> None)
          (fun group -> SyncResp { group });
      ]

  let message_wire_bytes m = Crdt_wire.Frame.value_size message_codec m

  (* The buffer [Bᵢ]: seq-tagged entries measured with [f] (ack), or the
     δ-buffer measured with [buf_size]. *)
  let buffer_size f buf_size n =
    if cfg.ack_mode then
      List.fold_left (fun acc e -> acc + f e.delta) 0 n.entries
    else buf_size n.buf

  (* Delta-based metadata: one sequence number per neighbor (Fig. 9). *)
  let memory n =
    {
      Protocol_intf.weight = C.weight n.x + buffer_size C.weight Buf.weight n;
      bytes = C.byte_size n.x + buffer_size C.byte_size Buf.byte_size n;
      metadata_bytes = 8 * List.length n.neighbors;
    }
end

(** Pre-packaged configurations, one per curve in Figs. 7–8. *)
module Classic_config = struct
  let config = classic
end

module Bp_config = struct
  let config = bp_only
end

module Rr_config = struct
  let config = rr_only
end

module Bp_rr_config = struct
  let config = bp_rr
end

module Ack_config = struct
  let config = { bp_rr with ack_mode = true }
end
