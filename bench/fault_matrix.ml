(* Protocol × fault matrix: convergence under adversity.

   Runs every capability-declaring protocol under each fault class the
   adversity layer injects — loss, scheduled partition (healed mid-run),
   per-link delay, crash–restart, and a combined storm — and reports
   whether it converged, how long convergence took after the last
   heal/restart event, and the fault accounting (dropped / held /
   partitioned message counts).  Cells a protocol does not declare
   tolerance for are reported as unsupported rather than run: that is
   the capability contract, the former behaviour being a silently
   diverged run.

   With --json the matrix also lands in BENCH_fault_matrix.json so the
   fault-tolerance surface is tracked across PRs. *)

open Crdt_core
open Crdt_sim
module Workload = Crdt_engine.Workload

module Si = Gset.Of_int

module type P_int =
  Crdt_proto.Protocol_intf.PROTOCOL with type crdt = Si.t and type op = int

(* Every registered protocol except the redundant delta variants:
   classic/BP/RR share BP+RR's (absent) fault tolerance, so they would
   only repeat its unsupported cells. *)
let protocols : (string * (module P_int)) list =
  List.filter_map
    (fun maker ->
      let name = Crdt_engine.Registry.protocol_name maker in
      if List.mem name [ "delta-classic"; "delta-bp"; "delta-rr" ] then None
      else
        Some
          ( name,
            Crdt_engine.Registry.instantiate maker
              (module Si : Crdt_proto.Protocol_intf.CRDT
                with type t = Si.t
                 and type op = Si.op) ))
    Crdt_engine.Registry.protocols

(* One fault cell = a plan builder parameterized on nodes/rounds so the
   same schedule shape scales with --quick. *)
let fault_cells ~nodes ~rounds =
  let third = max 1 (nodes / 3) in
  [
    ("none", Fault.none);
    ("drop-0.2", { Fault.none with Fault.drop = 0.2; seed = 17 });
    ( "partition",
      { Fault.none with
        Fault.partitions =
          [
            Fault.partition ~from_round:(rounds / 4)
              ~heal_round:(rounds / 2)
              [ List.init third Fun.id ];
          ];
      } );
    ( "delay",
      { Fault.none with
        Fault.delays =
          [ Fault.delay ~src:0 ~dst:1 ~hold:2; Fault.delay ~src:1 ~dst:0 ~hold:3 ];
      } );
    ( "crash",
      { Fault.none with
        Fault.crashes =
          [
            Fault.crash ~victim:(nodes - 1) ~crash_round:(rounds / 4)
              ~recover_round:(rounds / 2);
          ];
      } );
    ( "storm",
      {
        Fault.drop = 0.1;
        duplicate = 0.1;
        shuffle = true;
        seed = 23;
        partitions =
          [
            Fault.partition ~from_round:(rounds / 4)
              ~heal_round:(rounds / 2)
              [ [ 0; 1 ] ];
          ];
        delays = [ Fault.delay ~src:1 ~dst:2 ~hold:2 ];
        crashes =
          [
            Fault.crash ~victim:(nodes - 1) ~crash_round:(rounds / 3)
              ~recover_round:(2 * rounds / 3);
          ];
      } );
  ]

type cell = {
  protocol : string;
  fault : string;
  topo : string;
  nodes : int;
  rounds : int;
  supported : bool;
  converged : bool;  (** false for unsupported cells. *)
  ttc_after_heal : int;
      (** rounds from the last heal/recovery event to convergence;
          total rounds ran when the plan has no structural event. *)
  delivered : int;
  dropped : int;
  held : int;
  partitioned : int;
}

let run_cell (module P : P_int) ~name ~fault_name ~faults ~topology ~rounds =
  let module R = Runner.Make (P) in
  let nodes = Topology.size topology in
  if not (Fault.supported ~caps:P.capabilities faults) then
    {
      protocol = name;
      fault = fault_name;
      topo = Topology.name topology;
      nodes;
      rounds;
      supported = false;
      converged = false;
      ttc_after_heal = 0;
      delivered = 0;
      dropped = 0;
      held = 0;
      partitioned = 0;
    }
  else
    let res =
      R.run ~faults ~equal:Si.equal ~topology ~rounds
        ~ops:(fun ~round ~node _ -> Workload.gset ~nodes ~round ~node ())
        ()
    in
    let s = R.full_summary res in
    let total_rounds = rounds + Array.length res.R.quiesce_rounds in
    {
      protocol = name;
      fault = fault_name;
      topo = Topology.name topology;
      nodes;
      rounds;
      supported = true;
      converged = res.R.converged;
      ttc_after_heal = total_rounds - Fault.last_heal faults;
      delivered = s.Metrics.totals.messages;
      dropped = s.Metrics.totals.dropped;
      held = s.Metrics.totals.held;
      partitioned = s.Metrics.totals.partitioned;
    }

let cells ~nodes ~rounds =
  let topology = Topology.partial_mesh nodes in
  List.concat_map
    (fun (name, p) ->
      List.map
        (fun (fault_name, faults) ->
          run_cell p ~name ~fault_name ~faults ~topology ~rounds)
        (fault_cells ~nodes ~rounds))
    protocols

let print_cells cells =
  Report.table
    ~header:
      [
        "protocol"; "fault"; "converged"; "ttc-after-heal"; "delivered";
        "dropped"; "held"; "partitioned";
      ]
    (List.map
       (fun c ->
         if not c.supported then
           [ c.protocol; c.fault; "unsupported"; "-"; "-"; "-"; "-"; "-" ]
         else
           [
             c.protocol;
             c.fault;
             (if c.converged then "yes" else "NO");
             Report.i c.ttc_after_heal;
             Report.i c.delivered;
             Report.i c.dropped;
             Report.i c.held;
             Report.i c.partitioned;
           ])
       cells)

let write_json path ~scale cells =
  let oc = open_out path in
  let out fmt = Printf.fprintf oc fmt in
  out "{\n  \"bench\": \"fault_matrix\",\n  \"schema\": 1,\n";
  out "  \"host\": %s,\n" (Report.host_json ());
  out "  \"scale\": %S,\n" scale;
  out "  \"matrix\": [\n";
  List.iteri
    (fun i c ->
      out
        "    {\"protocol\": %S, \"fault\": %S, \"topology\": %S, \"nodes\": \
         %d, \"rounds\": %d,\n\
        \     \"supported\": %b, \"converged\": %b, \"ttc_after_heal\": %d,\n\
        \     \"delivered\": %d, \"dropped\": %d, \"held\": %d, \
         \"partitioned\": %d}%s\n"
        c.protocol c.fault c.topo c.nodes c.rounds c.supported c.converged
        c.ttc_after_heal c.delivered c.dropped c.held c.partitioned
        (if i = List.length cells - 1 then "" else ","))
    cells;
  out "  ]\n}\n";
  close_out oc;
  Report.note "wrote %s" path

let run ?(quick = false) ?json_path () =
  let nodes = if quick then 6 else 12 in
  let rounds = if quick then 8 else 20 in
  Report.section "fault_matrix"
    "protocol × fault convergence matrix (partition / delay / crash / loss)";
  let cells = cells ~nodes ~rounds in
  print_cells cells;
  Report.note
    "unsupported = the protocol does not declare tolerance for the fault \
     class and the runner refuses the plan up front";
  let bad =
    List.filter (fun c -> c.supported && not c.converged) cells
  in
  if bad <> [] then
    Report.note "WARNING: %d supported cell(s) failed to converge"
      (List.length bad);
  match json_path with
  | None -> ()
  | Some path -> write_json path ~scale:(if quick then "quick" else "default") cells
