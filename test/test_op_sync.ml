(* Unit tests for the operation-based middleware: causal delivery,
   duplicate suppression, store-and-forward seen-sets, and buffer
   eviction. *)

open Crdt_core
open Crdt_proto

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

module S = Gset.Of_string
module P = Op_sync.Make (S)

let basics =
  [
    Alcotest.test_case "local update applies immediately" `Quick (fun () ->
        let n = P.init ~id:0 ~neighbors:[ 1 ] ~total:2 in
        let n = P.local_update n "x" in
        check "applied" true (S.mem "x" (P.state n)));
    Alcotest.test_case "tick ships buffered operations once" `Quick (fun () ->
        let n = P.init ~id:0 ~neighbors:[ 1 ] ~total:2 in
        let n = P.local_update n "x" in
        let n, msgs = P.tick n in
        check_int "one message" 1 (List.length msgs);
        let _, msgs = P.tick n in
        check "nothing to resend" true (msgs = []));
    Alcotest.test_case "receiver applies the op at its origin's identity"
      `Quick (fun () ->
        let module Pc = Op_sync.Make (Gcounter) in
        let a = Pc.init ~id:0 ~neighbors:[ 1 ] ~total:2 in
        let b = Pc.init ~id:1 ~neighbors:[ 0 ] ~total:2 in
        let a = Pc.local_update a (Gcounter.Inc 1) in
        let _, msgs = Pc.tick a in
        let b, _ = Pc.handle b ~src:0 (List.assoc 1 msgs) in
        (* entry belongs to replica 0, not to receiver 1. *)
        check_int "origin entry" 1
          (Gcounter.find (Replica_id.of_int 0) (Pc.state b));
        check_int "receiver entry" 0
          (Gcounter.find (Replica_id.of_int 1) (Pc.state b)));
  ]

(* Drive out-of-causal-order delivery by hand: node 0 emits x then y; a
   third node receives y's batch first. *)
let causal_tests =
  [
    Alcotest.test_case "delivery waits for the causal past" `Quick (fun () ->
        let a = P.init ~id:0 ~neighbors:[ 1 ] ~total:3 in
        let c = P.init ~id:2 ~neighbors:[ 0 ] ~total:3 in
        let a = P.local_update a "x" in
        let a, msgs1 = P.tick a in
        let batch1 = List.assoc 1 msgs1 in
        let a = P.local_update a "y" in
        (* Force a resend of everything to a fresh destination by
           tricking tick: node 1 already marked seen, so emit to 1 again
           is empty; instead reuse the tagged batches directly. *)
        let _, msgs2 = P.tick a in
        let batch2 = List.assoc 1 msgs2 in
        (* Deliver the later op first: it must be parked, not applied. *)
        let c, _ = P.handle c ~src:0 batch2 in
        check "y not yet visible" false (S.mem "y" (P.state c));
        (* Now the earlier op arrives; both become visible. *)
        let c, _ = P.handle c ~src:0 batch1 in
        check "x visible" true (S.mem "x" (P.state c));
        check "y visible after its past" true (S.mem "y" (P.state c)));
    Alcotest.test_case "duplicates are delivered exactly once" `Quick
      (fun () ->
        let module Pc = Op_sync.Make (Gcounter) in
        let a = Pc.init ~id:0 ~neighbors:[ 1 ] ~total:2 in
        let b = Pc.init ~id:1 ~neighbors:[ 0 ] ~total:2 in
        let a = Pc.local_update a (Gcounter.Inc 1) in
        let _, msgs = Pc.tick a in
        let batch = List.assoc 1 msgs in
        let b, _ = Pc.handle b ~src:0 batch in
        let b, _ = Pc.handle b ~src:0 batch in
        let b, _ = Pc.handle b ~src:0 batch in
        check_int "value once" 1 (Gcounter.value (Pc.state b)));
  ]

let forwarding_tests =
  [
    Alcotest.test_case "ops are forwarded to neighbors that haven't seen them"
      `Quick (fun () ->
        (* Line 0-1-2: node 1 forwards node 0's op to node 2. *)
        let b = P.init ~id:1 ~neighbors:[ 0; 2 ] ~total:3 in
        let a = P.init ~id:0 ~neighbors:[ 1 ] ~total:3 in
        let a = P.local_update a "x" in
        let _, msgs = P.tick a in
        let b, _ = P.handle b ~src:0 (List.assoc 1 msgs) in
        let _, msgs = P.tick b in
        check "forwards to 2" true (List.mem_assoc 2 msgs);
        check "does not echo to 0" false (List.mem_assoc 0 msgs));
    Alcotest.test_case "seen-set updates suppress redundant forwards" `Quick
      (fun () ->
        (* Node 1 receives the same op from 0 and from 2; it must forward
           to neither. *)
        let b = P.init ~id:1 ~neighbors:[ 0; 2 ] ~total:3 in
        let a = P.init ~id:0 ~neighbors:[ 1; 2 ] ~total:3 in
        let a = P.local_update a "x" in
        let _, msgs = P.tick a in
        let batch = List.assoc 1 msgs in
        let b, _ = P.handle b ~src:0 batch in
        let b, _ = P.handle b ~src:2 batch in
        let _, msgs = P.tick b in
        check "nothing to forward" true (msgs = []));
    Alcotest.test_case "buffer drains once every neighbor has seen the op"
      `Quick (fun () ->
        let a = P.init ~id:0 ~neighbors:[ 1; 2 ] ~total:3 in
        let a = P.local_update a "x" in
        let before = (P.memory a).weight in
        let a, _ = P.tick a in
        (* after shipping to both neighbors the entry is evicted; what
           remains is the CRDT element plus the delivered-ops clock. *)
        check "entry evicted" true ((P.memory a).weight < before);
        check_int "crdt + clock entry" 2 (P.memory a).weight);
  ]

let metadata_tests =
  [
    Alcotest.test_case "each op ships with its vector clock" `Quick (fun () ->
        let a = P.init ~id:0 ~neighbors:[ 1 ] ~total:2 in
        let a = P.local_update a "x" in
        let a = P.local_update a "y" in
        let _, msgs = P.tick a in
        let batch = List.assoc 1 msgs in
        check_int "payload = 2 ops" 2 (P.payload_weight batch);
        check "metadata ≥ one vector entry per op" true
          (P.metadata_weight batch >= 2));
  ]

let () =
  Alcotest.run "op_sync"
    [
      ("basics", basics);
      ("causal delivery", causal_tests);
      ("store-and-forward", forwarding_tests);
      ("metadata", metadata_tests);
    ]
