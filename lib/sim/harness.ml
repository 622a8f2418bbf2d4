(** Uniform experiment driver: runs the same workload under every
    synchronization protocol and returns comparable measurements.

    Protocol dispatch is registry-driven: the harness walks
    {!Crdt_engine.Registry.protocols} and instantiates each selected
    constructor for the experiment's CRDT through
    {!Crdt_engine.Registry.For}, so a protocol added to the registry
    shows up here (and in every harness client) without edits.

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

(** Find the ratio baseline in a result list: BP+RR when present,
    otherwise its ack-mode variant (fault runs may mask plain BP+RR),
    otherwise the first outcome.
    @raise Invalid_argument ("no protocol selected") on an empty list. *)
let baseline outcomes =
  let find name = List.find_opt (fun o -> o.protocol = name) outcomes in
  match (find "delta-bp+rr", find "delta-bp+rr-ack", outcomes) with
  | Some o, _, _ | None, Some o, _ | None, None, o :: _ -> o
  | None, None, [] -> invalid_arg "no protocol selected"

module Make (C : Protocol_intf.CRDT) = struct
  module Protocols = Registry.For (C)

  type ops = round:int -> node:int -> C.t -> C.op list

  (** Split a selection into the protocols whose declared capabilities
      cover the fault [plan] and the names that were masked, so callers
      can report them instead of silently shrinking the comparison; both
      in registry order.  With [Fault.none] nothing is masked.
      @raise Invalid_argument on an unknown name. *)
  let mask_unsupported (plan : Fault.plan) selection =
    let kept, masked =
      List.partition
        (fun maker ->
          let module P = (val Protocols.make maker) in
          Fault.supported ~caps:P.capabilities plan)
        (selected selection)
    in
    (List.map Registry.protocol_name kept, List.map Registry.protocol_name masked)

  let run_one (maker : Registry.proto) ?faults ?(domains = 1) ?bytes ?sink
      ~topology ~rounds ~(ops : ops) () =
    let module P = (val Protocols.make maker) in
    let module R = Runner.Make (P) in
    (match sink with
    | Some (s : Crdt_engine.Trace.sink) ->
        s.meta ("protocol=" ^ P.protocol_name)
    | None -> ());
    let res =
      R.run ?faults ~domains ?bytes ?sink ~equal:C.equal ~topology ~rounds
        ~ops ()
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
  let run ?(selection = default_protocols) ?faults ?(domains = 1) ?bytes
      ?sink ~topology ~rounds ~(ops : ops) () =
    List.map
      (fun maker ->
        run_one maker ?faults ~domains ?bytes ?sink ~topology ~rounds ~ops ())
      (selected selection)
end
