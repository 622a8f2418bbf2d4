(* Reproduce the paper's headline observation interactively: on a
   topology with cycles, classic delta-based synchronization transmits
   about as much as state-based, while BP+RR transmits a fraction of it —
   and on a tree, BP alone is enough (Section V-B, Fig. 7).

   Run with: dune exec examples/gossip_topologies.exe *)

open Crdt_core
open Crdt_sim
module Workload = Crdt_engine.Workload
module H = Harness.Make (Gset.Of_int)

let experiment topo =
  Printf.printf "\n%u-node %s topology (%s):\n" (Topology.size topo)
    (Topology.name topo)
    (if Topology.is_acyclic topo then "acyclic" else "has cycles");
  let nodes = Topology.size topo in
  let outcomes =
    H.run ~topology:topo ~rounds:50
      ~ops:(fun ~round ~node state -> Workload.gset ~nodes ~round ~node state)
      ()
  in
  let baseline = Harness.baseline outcomes in
  let b = Metrics.total_transmission baseline.Harness.summary in
  List.iter
    (fun (o : Harness.outcome) ->
      let t = Metrics.total_transmission o.summary in
      Printf.printf "  %-15s %8d elements  %5.2fx vs bp+rr  %s\n" o.protocol t
        (float_of_int t /. float_of_int b)
        (if o.converged then "" else "NOT CONVERGED"))
    outcomes

let () =
  print_string
    "Each node adds one unique element to a replicated GSet per round\n\
     (50 rounds), synchronizing with its neighbors once per round.\n";
  experiment (Topology.tree 15);
  experiment (Topology.partial_mesh 15);
  print_newline ()
