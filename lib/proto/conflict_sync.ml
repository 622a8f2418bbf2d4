(** ConflictSync: digest-driven reconciliation of divergent state
    (arXiv:2505.01144 applied to this repo's protocol stack).

    Every other protocol here pays for a reconnect-after-gap with cost
    proportional to {e state size}: state-based ships [xᵢ] whole,
    delta-classic's recovery handshake ships full states both ways,
    merkle walks a tree whose traffic grows with the bucket count.
    ConflictSync reconciles the {e set of irreducibles} [⇓x] instead, so
    the wire cost of a catch-up scales with the symmetric difference
    [|⇓a △ ⇓b|] — the amount the peers actually diverged.

    {b Steady state} is plain BP+RR delta synchronization through the
    same {!Delta_buffer} as {!Delta_sync}: local mutations and received
    δ-groups accumulate per origin (BP: nothing is echoed to its origin;
    RR: only the strictly-inflating part is stored), and [tick] pushes the
    buffer to every neighbor.  Each tick additionally piggybacks a
    constant-size [Digest] — a commutative hash of [⇓x] — to every
    neighbor.

    {b Divergence detection.}  A digest mismatch alone means nothing
    while deltas are in flight (the peers legitimately trail each other
    by a round), so a mismatch only counts when the link has been
    {e quiet} — no δ-group traffic either way for [quiet_ticks] ticks.
    [mismatch_streak] consecutive quiet mismatches trigger a
    reconciliation session (initiated by the lower id, so exactly one
    side starts it).  After [recover], the restarted replica initiates
    sessions with every neighbor directly — its buffer is gone and a
    digest round-trip would only add latency.

    {b Session state machine} (initiator A, responder B):

    + A snapshots [⇓xₐ] as a hash→irreducible table and sends
      [SyncReq sid].
    + B snapshots likewise and streams rateless-IBLT cells of its key
      set: [Cells] chunks, doubling in size ([chunk0], then the current
      total again) as A answers [More] — the stream adapts to the
      unknown difference size with no size-estimation round.
    + A subtracts its own cells over the same index range and runs the
      peeling decoder after each chunk.  On success it knows the exact
      signed difference: it sends [Decoded] carrying the irreducibles
      only it holds plus the hashes of those only B holds; B joins the
      former, answers [Serve] with the latter, both sides close.
    + If the difference is so large that decode hasn't happened by
      [escalate_cells] cells, A escalates to one Bloom round:
      [BloomReq] carries a filter of A's keys, B answers [BloomResp]
      with its own filter plus every irreducible of its snapshot whose
      key the filter rejects, and A closes with [Serve] of the
      symmetric complement.  Bloom false positives (rate [fpr]) can
      leave a residue of elements neither side shipped, so both sides
      remember the escalation ([escalated]): the next digest mismatch
      with that peer forces a follow-up session {e immediately} —
      bypassing the quiet-link and streak gates, which an ongoing
      workload would otherwise suppress forever (delta traffic keeps
      the link non-quiet, and BP groups never re-carry old elements).
      The follow-up's difference is just the residue, which the IBLT
      path resolves exactly.  Filters are salted with the session id so
      a repeat Bloom round (huge residue) re-rolls its false positives
      instead of deterministically reproducing them.

    Sessions are volatile: they idle out after [session_timeout] ticks
    without progress (lost legs, crashed peers) and the digest mismatch
    that caused them re-triggers a fresh one — that retry loop is what
    makes the protocol tolerate loss, partitions, delay and crashes.
    Stale or duplicated session messages are ignored by session-id and
    chunk-offset checks; and since every action only ever {e joins
    genuine irreducibles} into the state, the worst any corruption or
    staleness can do is waste bytes, never diverge.

    {b Why IBLT-first, Bloom-as-escalation} (the reverse of the paper's
    presentation order): a Bloom filter over [⇓x] costs O(|⇓x|) bytes
    regardless of how small the difference is, which is exactly the
    state-size scaling this protocol exists to avoid; the rateless cell
    stream costs O(d) for a difference of d.  Bloom only wins when d is
    within a constant factor of the state size, so it serves as the
    large-divergence fallback rather than the opening move. *)

module type CONFIG = sig
  val fpr : float
  (** Bloom false-positive rate for the escalation round. *)

  val chunk0 : int
  (** cells in the first IBLT chunk; later chunks double the total. *)

  val escalate_cells : int
  (** total cells after which A gives up on peeling and goes Bloom. *)

  val mismatch_streak : int
  (** quiet digest mismatches in a row before initiating a session. *)

  val quiet_ticks : int
  (** ticks without δ-traffic on a link before mismatches count. *)

  val session_timeout : int
  (** ticks without session progress before it is garbage-collected. *)
end

(* [chunk0 = 8] keeps the opening chunk close to the cost of a tiny
   difference (a handful of 15-byte cells, cheaper than one tree
   descent) — chunks double from there, and since session legs cascade
   within a tick the extra [More] round trips are a few bytes, not
   latency.  [escalate_cells = 256] caps the doubling stream's
   worst-case waste at ~4 KB of cells before the Bloom fallback:
   differences up to ~190 irreducibles (the rateless decoder needs
   ≈ 1.35 d cells) still decode exactly, larger ones pay one bounded
   Bloom round instead of an ever-longer cell stream. *)
module Default_config = struct
  let fpr = 0.01
  let chunk0 = 8
  let escalate_cells = 256
  let mismatch_streak = 2
  let quiet_ticks = 2
  let session_timeout = 8
end

module Make (C : Protocol_intf.CRDT) (Cfg : CONFIG) :
  Protocol_intf.PROTOCOL with type crdt = C.t and type op = C.op = struct
  module Imap = Map.Make (Int)
  module Iset = Set.Make (Int)
  module Buf = Delta_buffer.Make (C)
  module Hash = Crdt_digest.Hash
  module Bloom = Crdt_digest.Bloom
  module Iblt = Crdt_digest.Iblt

  type crdt = C.t
  type op = C.op

  let key_of y = Hash.of_value C.codec y

  (* Bloom keys are salted with the session id: a repeat escalation over
     the same snapshots must re-roll its false positives, or the same
     residue would survive every round (the hashes are deterministic). *)
  let salt sid k = Hash.combine sid k

  (* Initiator-side session: waiting for cells (then for Serve). *)
  type isession = {
    i_sid : int;
    i_table : (int, C.t) Hashtbl.t;  (** key ↦ irreducible of ⇓snapshot. *)
    i_keys : int list;
    i_diff : Iblt.cell array;  (** (B − A) cells accumulated so far. *)
    i_last : int;  (** tick of last progress, for the idle timeout. *)
  }

  (* Responder-side session: serving cells (then need-hashes). *)
  type rsession = {
    r_sid : int;
    r_table : (int, C.t) Hashtbl.t;
    r_keys : int list;
    r_snap : C.t;
    r_last : int;
  }

  type node = {
    id : Crdt_core.Replica_id.t;
    self : int;
    neighbors : int list;
    x : C.t;  (** durable. *)
    digest : int option;
        (** digest of [⇓x], kept in step with every join; [None] only
            between [load] and the first digest that needs it. *)
    now : int;  (** tick counter; everything below is volatile. *)
    next_sid : int;
    buf : Buf.t;  (** the BP δ-buffer. *)
    streak : int Imap.t;  (** peer ↦ consecutive quiet digest mismatches. *)
    last_traffic : int Imap.t;  (** peer ↦ last tick a δ-group flowed. *)
    resync : Iset.t;  (** peers to force-sync with after a restart. *)
    escalated : Iset.t;
        (** peers whose last session took the (lossy) Bloom road: the
            next digest mismatch forces a follow-up session without
            waiting for a quiet-link streak. *)
    init_s : isession Imap.t;  (** peer ↦ session we initiated. *)
    resp_s : rsession Imap.t;  (** peer ↦ session we respond to. *)
  }

  type message =
    | Delta of { group : C.t; weight : int; bytes : int }
    | Digest of { h : int }
    | SyncReq of { sid : int }
    | Cells of { sid : int; lo : int; cells : Iblt.cell list }
    | More of { sid : int; hi : int }
    | BloomReq of { sid : int; filter : Bloom.t }
    | BloomResp of {
        sid : int;
        filter : Bloom.t;
        elements : C.t list;
        weight : int;
        bytes : int;
      }
    | Decoded of {
        sid : int;
        need : int list;  (** hashes of irreducibles only the peer holds. *)
        elements : C.t list;  (** irreducibles only we hold. *)
        weight : int;
        bytes : int;
      }
    | Serve of { sid : int; elements : C.t list; weight : int; bytes : int }

  let protocol_name = "conflict-sync"

  (* Loss, cuts, delay and crashes all reduce to "states quietly differ
     while no repair is running" — which the digest mismatch detects and
     a (re)triggered session repairs. *)
  let capabilities =
    {
      Protocol_intf.tolerates_drop = true;
      tolerates_partition = true;
      tolerates_delay = true;
      tolerates_crash = true;
      durable_restart = true;
    }

  (* Session ids are namespaced by the issuing replica so the two
     directions of a concurrent A↔B session pair can never collide on
     [sid] (which would let a Serve close the wrong session — harmless,
     since a timeout would repair it, but wasteful). *)
  let sid_base self = self lsl 20

  let init ~id ~neighbors ~total:_ =
    {
      id = Crdt_core.Replica_id.of_int id;
      self = id;
      neighbors;
      x = C.bottom;
      digest = Some 0;
      now = 0;
      next_sid = sid_base id;
      buf = Buf.empty ~bp:true;
      streak = Imap.empty;
      last_traffic = Imap.empty;
      resync = Iset.empty;
      escalated = Iset.empty;
      init_s = Imap.empty;
      resp_s = Imap.empty;
    }

  (* [x] is durable, and so is its digest. *)
  let crash n =
    {
      n with
      now = 0;
      next_sid = sid_base n.self;
      buf = Buf.clear n.buf;
      streak = Imap.empty;
      last_traffic = Imap.empty;
      resync = Iset.empty;
      escalated = Iset.empty;
      init_s = Imap.empty;
      resp_s = Imap.empty;
    }

  let recover n = { n with resync = Iset.of_list n.neighbors }

  (* Restart-from-disk: the digest session machinery only ever compares
     states, so installing the recovered state and arming a resync with
     every neighbor is the whole story.  The recovered state's digest is
     left unknown and computed by the first digest that needs it, so a
     boot pays no decomposition up front. *)
  let load n s = recover { n with x = C.join n.x s; digest = None }

  (* [Hash.combine] is XOR, so the digest of a set of irreducibles is
     updated by folding in the hashes of what enters or leaves it. *)
  let hash_into h e =
    C.fold_decompose (fun y acc -> Hash.combine acc (key_of y)) e h

  (* Commutative digest of ⇓x: computed from scratch only once after a
     [load], kept in step by [grow] otherwise. *)
  let state_digest n =
    match n.digest with
    | Some h -> (h, n)
    | None ->
        let h = hash_into 0 n.x in
        (h, { n with digest = Some h })

  (* Every join into [x] but [load]'s.  [e] must be an optimal delta
     against [x] (no irreducible of [e] is ⊑ x): then ⇓(x ⊔ e) is ⇓x
     minus ⇓redundancy(x,e) plus ⇓e, and the digest moves by the hashes
     of those two sets — work proportional to the delta, not the
     state. *)
  let grow n e =
    let digest =
      Option.map
        (fun h -> hash_into (hash_into h e) (C.redundancy n.x e))
        n.digest
    in
    { n with x = C.join n.x e; digest }

  let snapshot_table x =
    let table = Hashtbl.create 64 in
    let keys =
      C.fold_decompose
        (fun y acc ->
          let k = key_of y in
          if Hashtbl.mem table k then acc
          else begin
            Hashtbl.add table k y;
            k :: acc
          end)
        x []
    in
    (table, keys)

  (* fun store(s, o).  Both callers pass an optimal delta, as [grow]
     needs: [absorb] extracts Δ(d,x) (RR), and [local_update] relies on
     the CRDT contract that mᵟ(x) = Δ(m(x),x). *)
  let store n delta origin =
    { (grow n delta) with buf = Buf.add n.buf ~origin delta }

  let absorb n ~src d =
    match Buf.extract ~rr:true d n.x with
    | Some d -> store n d src
    | None -> n

  let local_update n op =
    let delta = C.delta_mutate op n.id n.x in
    if C.is_bottom delta then n else store n delta n.self

  (* Message smart constructors: weight/bytes measured once, at build
     (and at decode — they never travel). *)
  let mk_delta group =
    Delta { group; weight = C.weight group; bytes = C.byte_size group }

  let sum_costs elements =
    List.fold_left
      (fun (w, b) y -> (w + C.weight y, b + C.byte_size y))
      (0, 0) elements

  let mk_bloomresp sid filter elements =
    let weight, bytes = sum_costs elements in
    BloomResp { sid; filter; elements; weight; bytes }

  let mk_decoded sid need elements =
    let weight, bytes = sum_costs elements in
    Decoded { sid; need; elements; weight; bytes }

  let mk_serve sid elements =
    let weight, bytes = sum_costs elements in
    Serve { sid; elements; weight; bytes }

  let session_with n j = Imap.mem j n.init_s || Imap.mem j n.resp_s

  let initiate n j =
    let table, keys = snapshot_table n.x in
    let s =
      {
        i_sid = n.next_sid;
        i_table = table;
        i_keys = keys;
        i_diff = [||];
        i_last = n.now;
      }
    in
    let n =
      {
        n with
        next_sid = n.next_sid + 1;
        init_s = Imap.add j s n.init_s;
        streak = Imap.remove j n.streak;
      }
    in
    (n, (j, SyncReq { sid = s.i_sid }))

  let prune_sessions n =
    let stale last = n.now - last > Cfg.session_timeout in
    {
      n with
      init_s = Imap.filter (fun _ s -> not (stale s.i_last)) n.init_s;
      resp_s = Imap.filter (fun _ s -> not (stale s.r_last)) n.resp_s;
    }

  let tick n =
    let n = prune_sessions { n with now = n.now + 1 } in
    (* Post-restart resync: initiate directly with every peer still
       owed a session (retried each tick until the session closes). *)
    let n, sync_msgs =
      Iset.fold
        (fun j (n, acc) ->
          if session_with n j then (n, acc)
          else
            let n, msg = initiate n j in
            (n, msg :: acc))
        n.resync (n, [])
    in
    let delta_msgs = Buf.push n.buf ~neighbors:n.neighbors mk_delta in
    let n =
      List.fold_left
        (fun n (j, _) -> { n with last_traffic = Imap.add j n.now n.last_traffic })
        n delta_msgs
    in
    (* Constant-size divergence probe to every neighbor, every tick. *)
    let h, n = state_digest n in
    let digest_msgs = List.map (fun j -> (j, Digest { h })) n.neighbors in
    let n = { n with buf = Buf.clear n.buf } in
    (n, List.rev sync_msgs @ delta_msgs @ digest_msgs)

  (* --- session legs ------------------------------------------------------ *)

  let chunk_after hi = if hi = 0 then Cfg.chunk0 else hi

  let serve_cells (s : rsession) ~lo =
    let len = chunk_after lo in
    let cells = Iblt.build ~keys:s.r_keys ~lo ~len in
    Cells { sid = s.r_sid; lo; cells = Array.to_list cells }

  (* A received a cell chunk: extend the difference table, try to peel. *)
  let on_cells n ~src (s : isession) ~lo cells =
    let len = List.length cells in
    let theirs = Array.of_list cells in
    let ours = Iblt.build ~keys:s.i_keys ~lo ~len in
    let diff = Array.append s.i_diff (Iblt.sub theirs ours) in
    let hi = Array.length diff in
    match Iblt.peel diff with
    | Some (plus, minus) ->
        (* plus = keys only B holds (we need them); minus = only ours. *)
        let push = List.filter_map (fun k -> Hashtbl.find_opt s.i_table k) minus in
        let s = { s with i_diff = diff; i_last = n.now } in
        let n = { n with init_s = Imap.add src s n.init_s } in
        (n, [ (src, mk_decoded s.i_sid plus push) ])
    | None ->
        let s = { s with i_diff = diff; i_last = n.now } in
        let n = { n with init_s = Imap.add src s n.init_s } in
        if hi >= Cfg.escalate_cells then
          let filter =
            Bloom.of_keys ~fpr:Cfg.fpr (List.map (salt s.i_sid) s.i_keys)
          in
          (n, [ (src, BloomReq { sid = s.i_sid; filter }) ])
        else (n, [ (src, More { sid = s.i_sid; hi }) ])

  let close_initiator n src =
    {
      n with
      init_s = Imap.remove src n.init_s;
      resync = Iset.remove src n.resync;
      streak = Imap.remove src n.streak;
    }

  let handle n ~src msg =
    match msg with
    | Delta { group; _ } ->
        let n = { n with last_traffic = Imap.add src n.now n.last_traffic } in
        (absorb n ~src group, [])
    | Digest { h } ->
        let mine, n = state_digest n in
        if mine = h then
          ( {
              n with
              streak = Imap.remove src n.streak;
              resync = Iset.remove src n.resync;
              escalated = Iset.remove src n.escalated;
            },
            [] )
        else if Iset.mem src n.escalated && not (session_with n src) then
          (* Post-escalation follow-up: the last session with this peer
             took the lossy Bloom road, so a persisting mismatch is
             (likely) its false-positive residue.  Initiate right away —
             the quiet-link and streak gates would starve this repair
             forever under an ongoing workload, and the id-order gate
             does not apply because only the session's two ends know an
             escalation happened. *)
          let n = { n with escalated = Iset.remove src n.escalated } in
          let n, req = initiate n src in
          (n, [ req ])
        else
          let quiet =
            match Imap.find_opt src n.last_traffic with
            | None -> true
            | Some t -> n.now - t >= Cfg.quiet_ticks
          in
          if not quiet then ({ n with streak = Imap.remove src n.streak }, [])
          else
            let st = (match Imap.find_opt src n.streak with Some s -> s | None -> 0) + 1 in
            if st >= Cfg.mismatch_streak && n.self < src && not (session_with n src)
            then
              let n, req = initiate n src in
              (n, [ req ])
            else ({ n with streak = Imap.add src st n.streak }, [])
    | SyncReq { sid } ->
        (* (Re)build the responder session — a duplicate or a newer
           request from the same peer simply supersedes the old one. *)
        let table, keys = snapshot_table n.x in
        let s =
          { r_sid = sid; r_table = table; r_keys = keys; r_snap = n.x; r_last = n.now }
        in
        let n = { n with resp_s = Imap.add src s n.resp_s } in
        (n, [ (src, serve_cells s ~lo:0) ])
    | Cells { sid; lo; cells } -> (
        match Imap.find_opt src n.init_s with
        | Some s when s.i_sid = sid && lo = Array.length s.i_diff ->
            on_cells n ~src s ~lo cells
        | _ -> (n, []) (* stale session or duplicated chunk. *))
    | More { sid; hi } -> (
        match Imap.find_opt src n.resp_s with
        | Some s when s.r_sid = sid ->
            let s = { s with r_last = n.now } in
            let n = { n with resp_s = Imap.add src s n.resp_s } in
            (n, [ (src, serve_cells s ~lo:hi) ])
        | _ -> (n, []))
    | BloomReq { sid; filter } -> (
        match Imap.find_opt src n.resp_s with
        | Some s when s.r_sid = sid ->
            (* Everything of ours the filter rejects is definitely
               missing at A; our own filter lets A answer in kind.  The
               round is lossy (false positives), so remember it: the
               next digest mismatch with A must force a follow-up. *)
            let missing =
              C.fold_decompose
                (fun y acc ->
                  if Bloom.mem filter (salt sid (key_of y)) then acc
                  else y :: acc)
                s.r_snap []
            in
            let mine =
              Bloom.of_keys ~fpr:Cfg.fpr (List.map (salt sid) s.r_keys)
            in
            let s = { s with r_last = n.now } in
            let n =
              {
                n with
                resp_s = Imap.add src s n.resp_s;
                escalated = Iset.add src n.escalated;
              }
            in
            (n, [ (src, mk_bloomresp sid mine (List.rev missing)) ])
        | _ -> (n, []))
    | BloomResp { sid; filter; elements; _ } -> (
        match Imap.find_opt src n.init_s with
        | Some s when s.i_sid = sid ->
            let n =
              List.fold_left (fun n y -> absorb n ~src y) n elements
            in
            let push =
              List.filter_map
                (fun k ->
                  if Bloom.mem filter (salt sid k) then None
                  else Hashtbl.find_opt s.i_table k)
                s.i_keys
            in
            (* closing a Bloom-escalated session: possible FP residue on
               both sides, so arm the follow-up trigger *)
            let n = close_initiator n src in
            let n = { n with escalated = Iset.add src n.escalated } in
            (n, [ (src, mk_serve sid push) ])
        | _ -> (n, []))
    | Decoded { sid; need; elements; _ } -> (
        match Imap.find_opt src n.resp_s with
        | Some s when s.r_sid = sid ->
            let n = List.fold_left (fun n y -> absorb n ~src y) n elements in
            let serve = List.filter_map (fun k -> Hashtbl.find_opt s.r_table k) need in
            let n = { n with resp_s = Imap.remove src n.resp_s } in
            (n, [ (src, mk_serve sid serve) ])
        | _ -> (n, []))
    | Serve { sid; elements; _ } ->
        let n = List.fold_left (fun n y -> absorb n ~src y) n elements in
        let n =
          match Imap.find_opt src n.init_s with
          | Some s when s.i_sid = sid -> close_initiator n src
          | _ -> n
        in
        let n =
          match Imap.find_opt src n.resp_s with
          | Some s when s.r_sid = sid -> { n with resp_s = Imap.remove src n.resp_s }
          | _ -> n
        in
        (n, [])

  let state n = n.x

  (* --- accounting --------------------------------------------------------- *)

  let payload_weight = function
    | Delta { weight; _ } | BloomResp { weight; _ } | Decoded { weight; _ }
    | Serve { weight; _ } ->
        weight
    | Digest _ | SyncReq _ | Cells _ | More _ | BloomReq _ -> 0

  let metadata_weight = function
    | Delta _ -> 0
    | Digest _ | SyncReq _ | More _ | BloomReq _ -> 1
    | Cells { cells; _ } -> List.length cells
    | BloomResp _ -> 1
    | Decoded { need; _ } -> 1 + List.length need
    | Serve _ -> 1

  let payload_bytes = function
    | Delta { bytes; _ } | BloomResp { bytes; _ } | Decoded { bytes; _ }
    | Serve { bytes; _ } ->
        bytes
    | Digest _ | SyncReq _ | Cells _ | More _ | BloomReq _ -> 0

  let metadata_bytes = function
    | Delta _ -> 0
    | Digest _ | SyncReq _ | More _ -> 8
    | Cells { cells; _ } -> 8 + (16 * List.length cells)
    | BloomReq { filter; _ } -> 8 + Bloom.bits_bytes filter
    | BloomResp { filter; _ } -> 8 + Bloom.bits_bytes filter
    | Decoded { need; _ } -> 8 + (8 * List.length need)
    | Serve _ -> 8

  let message_codec =
    let open Crdt_wire.Codec in
    union ~name:"conflict_sync_message"
      [
        case 0 C.codec
          (function Delta { group; _ } -> Some group | _ -> None)
          mk_delta;
        case 1 varint
          (function Digest { h } -> Some h | _ -> None)
          (fun h -> Digest { h });
        case 2 varint
          (function SyncReq { sid } -> Some sid | _ -> None)
          (fun sid -> SyncReq { sid });
        case 3
          (triple varint varint (list Iblt.cell_codec))
          (function
            | Cells { sid; lo; cells } -> Some (sid, lo, cells) | _ -> None)
          (fun (sid, lo, cells) -> Cells { sid; lo; cells });
        case 4 (pair varint varint)
          (function More { sid; hi } -> Some (sid, hi) | _ -> None)
          (fun (sid, hi) -> More { sid; hi });
        case 5 (pair varint Bloom.codec)
          (function BloomReq { sid; filter } -> Some (sid, filter) | _ -> None)
          (fun (sid, filter) -> BloomReq { sid; filter });
        case 6
          (triple varint Bloom.codec (list C.codec))
          (function
            | BloomResp { sid; filter; elements; _ } ->
                Some (sid, filter, elements)
            | _ -> None)
          (fun (sid, filter, elements) -> mk_bloomresp sid filter elements);
        case 7
          (triple varint (list varint) (list C.codec))
          (function
            | Decoded { sid; need; elements; _ } -> Some (sid, need, elements)
            | _ -> None)
          (fun (sid, need, elements) -> mk_decoded sid need elements);
        case 8
          (pair varint (list C.codec))
          (function
            | Serve { sid; elements; _ } -> Some (sid, elements) | _ -> None)
          (fun (sid, elements) -> mk_serve sid elements);
      ]

  let message_wire_bytes m =
    Crdt_wire.Frame.framed_size
      ~payload_len:(Crdt_wire.Codec.encoded_size message_codec m)

  (* Metadata: streaks, traffic clocks and live session tables
     (snapshot tables count 8 B per key entry, difference tables 16 B
     per cell). *)
  let memory n =
    let sessions =
      Imap.fold
        (fun _ s acc -> acc + (8 * Hashtbl.length s.i_table) + (16 * Array.length s.i_diff))
        n.init_s 0
      + Imap.fold (fun _ s acc -> acc + (8 * Hashtbl.length s.r_table)) n.resp_s 0
    in
    {
      Protocol_intf.weight = C.weight n.x + Buf.weight n.buf;
      bytes = C.byte_size n.x + Buf.byte_size n.buf;
      metadata_bytes =
        8
        * (Imap.cardinal n.streak + Imap.cardinal n.last_traffic
          + Iset.cardinal n.escalated)
        + sessions;
    }
end
