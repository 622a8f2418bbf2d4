(** Uniform experiment driver: runs the same workload under every
    synchronization protocol and returns comparable measurements.

    Protocol dispatch is registry-driven: the harness walks
    {!Crdt_engine.Registry.protocols} and instantiates each selected
    constructor against the experiment's CRDT, so a protocol added to the
    registry shows up here (and in every harness client) without edits.

    Used by the benchmark executable (one section per paper figure) and by
    the [crdtsync] CLI. *)

open Crdt_proto
module Registry = Crdt_engine.Registry

type outcome = {
  protocol : string;
  summary : Metrics.summary;  (** measured rounds only. *)
  full : Metrics.summary;  (** including the convergence tail. *)
  converged : bool;
}

(** Which protocols to include in a run. *)
type selection = {
  state_based : bool;
  delta_classic : bool;
  delta_bp : bool;
  delta_rr : bool;
  delta_bp_rr : bool;
  delta_ack : bool;
      (** BP+RR with the ack-based δ-buffer (Section IV-C): the only
          delta variant that tolerates message loss and partitions, so
          fault experiments enable it; excluded from the paper's default
          comparison set. *)
  scuttlebutt : bool;
  scuttlebutt_gc : bool;
  op_based : bool;
  merkle : bool;
      (** hash-tree anti-entropy, an extension baseline beyond the
          paper's protocol set (related work [32, 33]). *)
  conflict_sync : bool;
      (** digest/IBLT divergence reconciliation (ConflictSync), another
          extension baseline. *)
}

let all_protocols =
  {
    state_based = true;
    delta_classic = true;
    delta_bp = true;
    delta_rr = true;
    delta_bp_rr = true;
    delta_ack = false;
    scuttlebutt = true;
    scuttlebutt_gc = true;
    op_based = true;
    merkle = true;
    conflict_sync = true;
  }

let delta_only =
  {
    state_based = false;
    delta_classic = true;
    delta_bp = false;
    delta_rr = false;
    delta_bp_rr = true;
    delta_ack = false;
    scuttlebutt = false;
    scuttlebutt_gc = false;
    op_based = false;
    merkle = false;
    conflict_sync = false;
  }

(* Registry name ↔ selection field.  The registry order is the stable
   reporting order, so [run] only needs the getters/setters here. *)
let enabled sel = function
  | "state-based" -> sel.state_based
  | "delta-classic" -> sel.delta_classic
  | "delta-bp" -> sel.delta_bp
  | "delta-rr" -> sel.delta_rr
  | "delta-bp+rr" -> sel.delta_bp_rr
  | "delta-bp+rr-ack" -> sel.delta_ack
  | "scuttlebutt" -> sel.scuttlebutt
  | "scuttlebutt-gc" -> sel.scuttlebutt_gc
  | "op-based" -> sel.op_based
  | "merkle" -> sel.merkle
  | "conflict-sync" -> sel.conflict_sync
  | name -> invalid_arg ("Harness: protocol not mapped to selection: " ^ name)

let disable sel = function
  | "state-based" -> { sel with state_based = false }
  | "delta-classic" -> { sel with delta_classic = false }
  | "delta-bp" -> { sel with delta_bp = false }
  | "delta-rr" -> { sel with delta_rr = false }
  | "delta-bp+rr" -> { sel with delta_bp_rr = false }
  | "delta-bp+rr-ack" -> { sel with delta_ack = false }
  | "scuttlebutt" -> { sel with scuttlebutt = false }
  | "scuttlebutt-gc" -> { sel with scuttlebutt_gc = false }
  | "op-based" -> { sel with op_based = false }
  | "merkle" -> { sel with merkle = false }
  | "conflict-sync" -> { sel with conflict_sync = false }
  | name -> invalid_arg ("Harness: protocol not mapped to selection: " ^ name)

let enable sel = function
  | "state-based" -> { sel with state_based = true }
  | "delta-classic" -> { sel with delta_classic = true }
  | "delta-bp" -> { sel with delta_bp = true }
  | "delta-rr" -> { sel with delta_rr = true }
  | "delta-bp+rr" -> { sel with delta_bp_rr = true }
  | "delta-bp+rr-ack" -> { sel with delta_ack = true }
  | "scuttlebutt" -> { sel with scuttlebutt = true }
  | "scuttlebutt-gc" -> { sel with scuttlebutt_gc = true }
  | "op-based" -> { sel with op_based = true }
  | "merkle" -> { sel with merkle = true }
  | "conflict-sync" -> { sel with conflict_sync = true }
  | name -> invalid_arg ("Harness: protocol not mapped to selection: " ^ name)

(* Everything off: the base for an explicit --protocol list. *)
let none_protocols =
  {
    state_based = false;
    delta_classic = false;
    delta_bp = false;
    delta_rr = false;
    delta_bp_rr = false;
    delta_ack = false;
    scuttlebutt = false;
    scuttlebutt_gc = false;
    op_based = false;
    merkle = false;
    conflict_sync = false;
  }

module Make (C : Protocol_intf.CRDT) = struct
  type ops = round:int -> node:int -> C.t -> C.op list

  (** Restrict [sel] to the protocols whose declared capabilities cover
      the fault [plan]; also returns the names that were excluded, so
      callers can report what was masked instead of silently shrinking
      the comparison.  With [Fault.none] this is the identity. *)
  let mask_unsupported (plan : Fault.plan) (sel : selection) =
    let excluded = ref [] in
    let sel =
      List.fold_left
        (fun sel maker ->
          let name = Registry.protocol_name maker in
          if
            enabled sel name
            && not (Fault.supported ~caps:(Registry.capabilities maker) plan)
          then begin
            excluded := name :: !excluded;
            disable sel name
          end
          else sel)
        sel Registry.protocols
    in
    (sel, List.rev !excluded)

  let run_one (maker : Registry.proto) ?faults ?quiesce_limit ?(domains = 1)
      ?bytes ?sink ~topology ~rounds ~(ops : ops) () =
    let module P =
      (val Registry.instantiate maker
             (module C : Protocol_intf.CRDT with type t = C.t and type op = C.op))
    in
    let module R = Runner.Make (P) in
    (match sink with
    | Some (s : Crdt_engine.Trace.sink) ->
        s.meta ("protocol=" ^ P.protocol_name)
    | None -> ());
    let res =
      R.run ?faults ?quiesce_limit ~domains ?bytes ?sink ~equal:C.equal
        ~topology ~rounds ~ops ()
    in
    {
      protocol = P.protocol_name;
      summary = R.summary res;
      full = R.full_summary res;
      converged = res.R.converged;
    }

  (** Run the selected protocols over the same topology and operation
      stream; results come back in the registry's stable order.
      [domains] selects the engine's pool width (results are identical
      at any setting).  A [faults] plan applies identically to every
      selected protocol; protocols whose capabilities do not cover it
      make {!Runner.Make.run} raise — use {!mask_unsupported} first to
      drop them instead.  [sink] attaches a trace sink to every run
      (each prefixed with a [protocol=<name>] meta event); it requires
      [domains = 1]. *)
  let run ?(selection = all_protocols) ?faults ?quiesce_limit ?(domains = 1)
      ?bytes ?sink ~topology ~rounds ~(ops : ops) () =
    List.filter_map
      (fun maker ->
        if enabled selection (Registry.protocol_name maker) then
          Some
            (run_one maker ?faults ?quiesce_limit ~domains ?bytes ?sink
               ~topology ~rounds ~ops ())
        else None)
      Registry.protocols

  (** Find the ratio baseline in a result list: BP+RR when present,
      otherwise its ack-mode variant (fault runs may mask plain BP+RR),
      otherwise the first outcome. *)
  let baseline outcomes =
    let find name = List.find_opt (fun o -> o.protocol = name) outcomes in
    match find "delta-bp+rr" with
    | Some o -> o
    | None -> (
        match find "delta-bp+rr-ack" with
        | Some o -> o
        | None -> (
            match outcomes with
            | o :: _ -> o
            | [] ->
                invalid_arg "Harness.baseline: empty outcome list"))
end
