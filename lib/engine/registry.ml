(* Protocol × CRDT registry; see registry.mli. *)

open Crdt_core
open Crdt_proto

module type PROTO_MAKER = sig
  val name : string
  val doc : string

  module Make (C : Protocol_intf.CRDT) :
    Protocol_intf.PROTOCOL with type crdt = C.t and type op = C.op
end

type proto = (module PROTO_MAKER)

let protocols : proto list =
  [
    (module struct
      let name = "state-based"
      let doc = "ship the full state to a neighbor every interval"

      module Make (C : Protocol_intf.CRDT) = State_sync.Make (C)
    end);
    (module struct
      let name = "delta-classic"
      let doc = "delta-buffer synchronization, no optimization (Algorithm 1)"

      module Make (C : Protocol_intf.CRDT) =
        Delta_sync.Make (C) (Delta_sync.Classic_config)
    end);
    (module struct
      let name = "delta-bp"
      let doc = "delta buffers with back-propagation of delta-groups"

      module Make (C : Protocol_intf.CRDT) =
        Delta_sync.Make (C) (Delta_sync.Bp_config)
    end);
    (module struct
      let name = "delta-rr"
      let doc = "delta buffers with removal of redundant state"

      module Make (C : Protocol_intf.CRDT) =
        Delta_sync.Make (C) (Delta_sync.Rr_config)
    end);
    (module struct
      let name = "delta-bp+rr"
      let doc = "delta buffers with both optimizations (the paper's best)"

      module Make (C : Protocol_intf.CRDT) =
        Delta_sync.Make (C) (Delta_sync.Bp_rr_config)
    end);
    (module struct
      let name = "delta-bp+rr-ack"
      let doc = "BP+RR with the ack-based buffer that survives loss"

      module Make (C : Protocol_intf.CRDT) =
        Delta_sync.Make (C) (Delta_sync.Ack_config)
    end);
    (module struct
      let name = "scuttlebutt"
      let doc = "digest/pairs anti-entropy over per-replica version vectors"

      module Make (C : Protocol_intf.CRDT) =
        Scuttlebutt.Make (C) (Scuttlebutt.No_gc_config)
    end);
    (module struct
      let name = "scuttlebutt-gc"
      let doc = "scuttlebutt with safe pair garbage collection"

      module Make (C : Protocol_intf.CRDT) =
        Scuttlebutt.Make (C) (Scuttlebutt.Gc_config)
    end);
    (module struct
      let name = "op-based"
      let doc = "causal broadcast of operations (reliable channels only)"

      module Make (C : Protocol_intf.CRDT) = Op_sync.Make (C)
    end);
    (module struct
      let name = "merkle"
      let doc = "hash-tree anti-entropy (related-work baseline)"

      module Make (C : Protocol_intf.CRDT) = Merkle_sync.Make (C)
    end);
    (module struct
      let name = "conflict-sync"

      let doc =
        "delta steady state + Bloom/rateless-IBLT digest reconciliation \
         of divergent state (ConflictSync)"

      module Make (C : Protocol_intf.CRDT) =
        Conflict_sync.Make (C) (Conflict_sync.Default_config)
    end);
  ]

let protocol_name (p : proto) =
  let module M = (val p) in
  M.name

let protocol_doc (p : proto) =
  let module M = (val p) in
  M.doc

let protocol_names = List.map protocol_name protocols

let find_protocol name =
  match
    List.find_opt (fun p -> String.equal (protocol_name p) name) protocols
  with
  | Some p -> p
  | None ->
      invalid_arg
        (Printf.sprintf "unknown protocol %S (known: %s)" name
           (String.concat ", " protocol_names))

(* Capabilities are a per-configuration constant of the protocol functor,
   so any instantiation reads them; GCounter is the cheapest lattice in
   the catalogue. *)
let capabilities (p : proto) =
  let module M = (val p) in
  let module P = M.Make (Gcounter) in
  P.capabilities

let instantiate (type a b) ((module M) : proto)
    ((module C) : (module Protocol_intf.CRDT with type t = a and type op = b))
    : (module Protocol_intf.PROTOCOL with type crdt = a and type op = b) =
  (module M.Make (C))

module type CRDT_SPEC = sig
  module C : Protocol_intf.CRDT

  val name : string
  val doc : string
  val excluded : string -> string option

  val micro_ops :
    nodes:int -> k:int -> round:int -> node:int -> C.t -> C.op list

  val serve_ops : id:int -> tick:int -> C.t -> C.op list
end

type crdt_spec = (module CRDT_SPEC)

let crdts : crdt_spec list =
  [
    (module struct
      module C = Gset.Of_int

      let name = "gset"
      let doc = "grow-only integer set; one globally unique add per event"
      let excluded _ = None

      let micro_ops ~nodes ~k:_ ~round ~node state =
        Workload.gset ~nodes ~round ~node state

      (* Per-tick elements are disjoint across replicas, so the converged
         cardinal is exactly replicas * ticks. *)
      let serve_ops ~id ~tick _ = [ (id * 1_000_000) + tick ]
    end);
    (module struct
      module C = Gcounter

      let name = "gcounter"
      let doc = "grow-only counter; one increment per event"
      let excluded _ = None

      let micro_ops ~nodes:_ ~k:_ ~round ~node state =
        Workload.gcounter ~round ~node state

      let serve_ops ~id:_ ~tick:_ _ = [ Gcounter.Inc 1 ]
    end);
    (module struct
      module C = Gmap.Versioned

      let name = "gmap"
      let doc = "grow-only map of version counters; K% of keys per interval"
      let excluded _ = None

      let micro_ops ~nodes ~k ~round ~node state =
        Workload.gmap ~total_keys:Workload.Defaults.total_keys ~k ~nodes
          ~round ~node state

      (* Contended keys: every replica bumps the same 50-key window, so
         after convergence exactly [min ticks 50] keys are live. *)
      let serve_ops ~id:_ ~tick _ =
        [ Gmap.Versioned.Apply (tick mod 50, Version.Bump) ]
    end);
    (module struct
      module C = Aw_set.Of_int

      let name = "orset"
      let doc = "add-wins OR-Set; unique adds plus observed removes"
      let excluded _ = None

      (* Unique adds plus an observed remove every third round at node 0,
         targeting node 0's OWN element from three rounds earlier.  The
         target is a function of (round, node) alone — never of the
         replica's delivered state — so every protocol (op-based
         included) performs the same operation sequence: the removed
         element carries exactly one dot, minted by the removing replica
         itself three rounds before, so replaying the remove at any
         causally consistent replica kills exactly that dot. *)
      let micro_ops ~nodes:_ ~k:_ ~round ~node _state =
        let add = Aw_set.Of_int.Add ((round * 1_000_003) + node) in
        if round mod 3 = 0 && node = 0 && round >= 3 then
          [ add; Aw_set.Of_int.Remove (((round - 3) * 1_000_003) + node) ]
        else [ add ]

      let serve_ops ~id ~tick _state =
        let add = Aw_set.Of_int.Add ((id * 1_000_000) + tick) in
        if tick mod 3 = 0 && id = 0 && tick >= 3 then
          [ add; Aw_set.Of_int.Remove ((id * 1_000_000) + (tick - 3)) ]
        else [ add ]
    end);
  ]

let crdt_name (s : crdt_spec) =
  let module S = (val s) in
  S.name

let crdt_names = List.map crdt_name crdts

let find_crdt name =
  match List.find_opt (fun s -> String.equal (crdt_name s) name) crdts with
  | Some s -> s
  | None ->
      invalid_arg
        (Printf.sprintf "unknown CRDT %S (known: %s)" name
           (String.concat ", " crdt_names))
