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

(** The default lineup: every registered protocol but the ack-based
    δ-buffer (BP+RR that tolerates loss, Section IV-C), which is outside
    the paper's comparison set; fault experiments name it. *)
let default_protocols =
  List.filter (fun name -> name <> "delta-bp+rr-ack") Registry.protocol_names

(* The registry entries a selection names, in the registry's stable
   order.  @raise Invalid_argument on a name the registry lacks. *)
let selected selection =
  List.iter (fun name -> ignore (Registry.find_protocol name)) selection;
  List.filter
    (fun maker -> List.mem (Registry.protocol_name maker) selection)
    Registry.protocols

module Make (C : Protocol_intf.CRDT) = struct
  type ops = round:int -> node:int -> C.t -> C.op list

  (** Split a selection into the protocols whose declared capabilities
      cover the fault [plan] and the names that were excluded, so callers
      can report what was masked instead of silently shrinking the
      comparison; both in registry order.  With [Fault.none] nothing is
      excluded.  @raise Invalid_argument on an unknown name. *)
  let mask_unsupported (plan : Fault.plan) selection =
    let kept, masked =
      List.partition
        (fun maker -> Fault.supported ~caps:(Registry.capabilities maker) plan)
        (selected selection)
    in
    (List.map Registry.protocol_name kept, List.map Registry.protocol_name masked)

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

  (** Run the protocols [selection] names (default {!default_protocols})
      over the same topology and operation stream; results come back in
      the registry's stable order, and an unknown name raises
      [Invalid_argument].  [domains] selects the engine's pool width
      (results are identical at any setting).  A [faults] plan applies identically to every
      selected protocol; protocols whose capabilities do not cover it
      make {!Runner.Make.run} raise — use {!mask_unsupported} first to
      drop them instead.  [sink] attaches a trace sink to every run
      (each prefixed with a [protocol=<name>] meta event); it requires
      [domains = 1]. *)
  let run ?(selection = default_protocols) ?faults ?quiesce_limit
      ?(domains = 1) ?bytes ?sink ~topology ~rounds ~(ops : ops) () =
    List.map
      (fun maker ->
        run_one maker ?faults ?quiesce_limit ~domains ?bytes ?sink ~topology
          ~rounds ~ops ())
      (selected selection)

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
