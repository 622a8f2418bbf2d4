(* Unit tests for the Scuttlebutt adaptation (Section V-B): digest/reply
   reconciliation over optimal deltas, unbounded growth of the original
   design, and the safe-delete rule of Scuttlebutt-GC. *)

open Crdt_core
open Crdt_proto
open Crdt_sim
module Workload = Crdt_engine.Workload

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

module S = Gset.Of_string
module Sb = Scuttlebutt.Make (S) (Scuttlebutt.No_gc_config)
module SbGc = Scuttlebutt.Make (S) (Scuttlebutt.Gc_config)

(* Manual two-node reconciliation. *)
let two_node_exchange () =
  let a = Sb.init ~id:0 ~neighbors:[ 1 ] ~total:2 in
  let b = Sb.init ~id:1 ~neighbors:[ 0 ] ~total:2 in
  let a = Sb.local_update a "x" in
  let a = Sb.local_update a "y" in
  (* B pushes its digest; A replies with the two missing pairs. *)
  let b, msgs = Sb.tick b in
  let digest = List.assoc 0 msgs in
  let a, replies = Sb.handle a ~src:1 digest in
  (a, b, replies)

let basics =
  [
    Alcotest.test_case "digest triggers a reply with missing pairs" `Quick
      (fun () ->
        let _, _, replies = two_node_exchange () in
        check_int "one reply" 1 (List.length replies);
        let _, pairs = List.hd replies in
        check_int "two deltas (2 elements)" 2 (Sb.payload_weight pairs));
    Alcotest.test_case "pairs deliver the state" `Quick (fun () ->
        let _, b, replies = two_node_exchange () in
        let _, pairs = List.hd replies in
        let b, _ = Sb.handle b ~src:0 pairs in
        check "B caught up" true
          (S.equal (Sb.state b) (S.of_list [ "x"; "y" ])));
    Alcotest.test_case "covered digests draw no reply" `Quick (fun () ->
        let a, b, replies = two_node_exchange () in
        let _, pairs = List.hd replies in
        let b, _ = Sb.handle b ~src:0 pairs in
        (* B now knows everything A has; A's digest to B yields nothing. *)
        let _, msgs = Sb.tick a in
        let _, replies = Sb.handle b ~src:0 (List.assoc 1 msgs) in
        check "no reply" true (replies = []));
    Alcotest.test_case "duplicate pairs are ignored" `Quick (fun () ->
        let _, b, replies = two_node_exchange () in
        let _, pairs = List.hd replies in
        let b, _ = Sb.handle b ~src:0 pairs in
        let before = (Sb.memory b).weight in
        let b, _ = Sb.handle b ~src:0 pairs in
        check_int "memory unchanged" before (Sb.memory b).weight);
  ]

(* Run the mesh micro-benchmark and inspect store growth. *)
module R_sb = Runner.Make (Scuttlebutt.Make (Gset.Of_int) (Scuttlebutt.No_gc_config))
module R_gc = Runner.Make (Scuttlebutt.Make (Gset.Of_int) (Scuttlebutt.Gc_config))

let growth_tests =
  [
    Alcotest.test_case "GC keeps the store bounded; original grows" `Quick
      (fun () ->
        let topo = Topology.partial_mesh 8 in
        let ops ~round ~node _ = Workload.gset ~nodes:8 ~round ~node () in
        let res_plain =
          R_sb.run ~equal:Gset.Of_int.equal ~topology:topo ~rounds:20 ~ops ()
        in
        let res_gc =
          R_gc.run ~equal:Gset.Of_int.equal ~topology:topo ~rounds:20 ~ops ()
        in
        check "both converge" true (res_plain.R_sb.converged && res_gc.R_gc.converged);
        let mem_plain = (R_sb.summary res_plain).Metrics.avg_memory_weight in
        let mem_gc = (R_gc.summary res_gc).Metrics.avg_memory_weight in
        check "GC uses less memory" true (mem_gc < mem_plain);
        (* In the original design the last round's memory dominates the
           average (monotone growth). *)
        let rounds = res_plain.R_sb.rounds in
        let last = rounds.(Array.length rounds - 1).memory_weight in
        let first = rounds.(0).memory_weight in
        check "plain store grows monotonically" true (last > first));
    Alcotest.test_case "GC metadata is quadratic-ish; plain is linear-ish"
      `Quick (fun () ->
        let topo = Topology.partial_mesh 8 in
        let ops ~round ~node _ = Workload.gset ~nodes:8 ~round ~node () in
        let res_plain =
          R_sb.run ~equal:Gset.Of_int.equal ~topology:topo ~rounds:10 ~ops ()
        in
        let res_gc =
          R_gc.run ~equal:Gset.Of_int.equal ~topology:topo ~rounds:10 ~ops ()
        in
        let md r = (Metrics.summarize r).Metrics.totals.metadata_bytes in
        check "GC ships more metadata" true
          (md res_gc.R_gc.rounds > 2 * md res_plain.R_sb.rounds));
  ]

let opaque_values =
  [
    Alcotest.test_case
      "GCounter through scuttlebutt: deltas pile up (no lattice compression)"
      `Quick (fun () ->
        (* One replica increments 5 times; all five key-delta pairs sit in
           the store even though their join is a single entry. *)
        let module Sbc = Scuttlebutt.Make (Gcounter) (Scuttlebutt.No_gc_config) in
        let a = Sbc.init ~id:0 ~neighbors:[ 1 ] ~total:2 in
        let a =
          List.fold_left
            (fun a () -> Sbc.local_update a (Gcounter.Inc 1))
            a
            (List.init 5 (fun _ -> ()))
        in
        (* CRDT weight is 1 entry, but the store holds 5 deltas. *)
        check_int "crdt entry" 1 (Gcounter.weight (Sbc.state a));
        check "store is larger than the CRDT" true ((Sbc.memory a).weight >= 6));
  ]

let () =
  Alcotest.run "scuttlebutt"
    [
      ("reconciliation", basics);
      ("store growth & GC", growth_tests);
      ("opaque values", opaque_values);
    ]
