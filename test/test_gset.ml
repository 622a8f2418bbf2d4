(* Unit tests for the grow-only set (Fig. 2b), including the optimal
   vs. naive δ-mutator distinction of Section III-B. *)

open Crdt_core
module S = Gset.Of_string

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let i = Replica_id.of_int 0

let basics =
  [
    Alcotest.test_case "fresh set is empty" `Quick (fun () ->
        check_int "cardinal" 0 (S.cardinal S.bottom);
        Alcotest.(check (list string)) "elements" [] (S.elements S.bottom));
    Alcotest.test_case "add then mem" `Quick (fun () ->
        let s = S.add "x" i S.bottom in
        check "mem" true (S.mem "x" s);
        check "not mem" false (S.mem "y" s));
    Alcotest.test_case "value is the set itself (Fig. 2b)" `Quick (fun () ->
        let s = S.of_list [ "b"; "a" ] in
        Alcotest.(check (list string)) "sorted" [ "a"; "b" ] (S.elements s));
    Alcotest.test_case "join is set union" `Quick (fun () ->
        let s = S.join (S.of_list [ "a"; "b" ]) (S.of_list [ "b"; "c" ]) in
        Alcotest.(check (list string)) "union" [ "a"; "b"; "c" ] (S.elements s));
    Alcotest.test_case "leq is subset" `Quick (fun () ->
        check "subset" true (S.leq (S.of_list [ "a" ]) (S.of_list [ "a"; "b" ]));
        check "not subset" false
          (S.leq (S.of_list [ "z" ]) (S.of_list [ "a"; "b" ])));
    Alcotest.test_case "leq regression: edges of the subset walk" `Quick
      (fun () ->
        (* Pin the corner cases of the short-circuiting order check:
           ⊥ at both ends, equality, extra elements on either side, and a
           violating element sorting before/after the common prefix. *)
        let abc = S.of_list [ "a"; "b"; "c" ] in
        check "⊥ ⊑ s" true (S.leq S.bottom abc);
        check "s ⋢ ⊥" false (S.leq abc S.bottom);
        check "⊥ ⊑ ⊥" true (S.leq S.bottom S.bottom);
        check "s ⊑ s" true (S.leq abc abc);
        check "first element missing" false
          (S.leq (S.of_list [ "A"; "b" ]) (S.of_list [ "b"; "c" ]));
        check "last element missing" false
          (S.leq (S.of_list [ "b"; "z" ]) (S.of_list [ "a"; "b"; "c" ]));
        check "interleaved subset" true
          (S.leq (S.of_list [ "a"; "c" ]) (S.of_list [ "a"; "b"; "c"; "d" ])));
  ]

let delta_tests =
  [
    Alcotest.test_case "addδ of a new element is a singleton" `Quick (fun () ->
        let s = S.of_list [ "a" ] in
        let d = S.add_delta "b" s in
        Alcotest.(check (list string)) "singleton" [ "b" ] (S.elements d));
    Alcotest.test_case "addδ of a present element is ⊥ (optimal)" `Quick
      (fun () ->
        let s = S.of_list [ "a" ] in
        check "bottom" true (S.is_bottom (S.add_delta "a" s)));
    Alcotest.test_case "naive δ-mutator from [13] is not optimal" `Quick
      (fun () ->
        let s = S.of_list [ "a" ] in
        let naive = S.add_delta_naive "a" s in
        check "returns a redundant singleton" false (S.is_bottom naive);
        (* Both still satisfy m(x) = x ⊔ mδ(x)… *)
        check "same result" true
          (S.equal (S.join s naive) (S.add "a" i s));
        (* …but the optimal one is strictly below the naive one. *)
        check "optimal ⊑ naive, not equal" true
          (S.leq (S.add_delta "a" s) naive
          && not (S.equal (S.add_delta "a" s) naive)));
    Alcotest.test_case "m(x) = x ⊔ mδ(x) for all adds" `Quick (fun () ->
        let s = S.of_list [ "a"; "b" ] in
        List.iter
          (fun e ->
            check e true
              (S.equal (S.add e i s) (S.join s (S.add_delta e s))))
          [ "a"; "b"; "c"; "d" ]);
  ]

let accounting =
  [
    Alcotest.test_case "weight counts elements (Table I metric)" `Quick
      (fun () ->
        check_int "weight" 3 (S.weight (S.of_list [ "a"; "b"; "c" ])));
    Alcotest.test_case "byte size sums element sizes" `Quick (fun () ->
        check_int "bytes" 6 (S.byte_size (S.of_list [ "ab"; "cdef" ])));
    Alcotest.test_case "op accounting" `Quick (fun () ->
        check_int "op weight" 1 (S.op_weight "abc");
        check_int "op bytes" 3 (S.op_byte_size "abc"));
  ]

let naive_tests =
  [
    Alcotest.test_case "naive δ-mutator re-ships present elements" `Quick
      (fun () ->
        let module N = Gset.Naive_of_int in
        let s = N.of_list [ 1; 2 ] in
        let d = N.delta_mutate 1 (Replica_id.of_int 0) s in
        check "non-bottom" false (N.is_bottom d);
        (* It still satisfies the δ-mutator contract. *)
        check "contract" true
          (N.equal
             (N.mutate 1 (Replica_id.of_int 0) s)
             (N.join s d)));
    Alcotest.test_case "naive mutator transmits strictly more under load"
      `Quick (fun () ->
        let open Crdt_sim in
        let module Workload = Crdt_engine.Workload in
        let topo = Topology.partial_mesh 6 in
        let ops ~round ~node state =
          Workload.gset_contended ~pool:5 ~round ~node state
        in
        let module Ho = Harness.Make (Gset.Of_int) in
        let module Hn = Harness.Make (Gset.Naive_of_int) in
        let sel = [ "delta-classic"; "delta-bp+rr" ] in
        let optimal = Ho.run ~selection:sel ~topology:topo ~rounds:12 ~ops () in
        let naive = Hn.run ~selection:sel ~topology:topo ~rounds:12 ~ops () in
        let payload outs =
          List.fold_left
            (fun acc (o : Harness.outcome) ->
              acc + o.summary.Metrics.totals.payload)
            0 outs
        in
        check "naive > optimal" true (payload naive > payload optimal));
  ]

let () =
  Alcotest.run "gset"
    [
      ("basics", basics);
      ("deltas", delta_tests);
      ("accounting", accounting);
      ("naive δ-mutator", naive_tests);
    ]
