(* Tests for the simulation driver (Runner) and the experiment harness
   (Harness): quiescent convergence, per-round accounting, fault
   determinism, protocol selection and ratio baselines. *)

open Crdt_core
open Crdt_sim
module Workload = Crdt_engine.Workload

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

module Si = Gset.Of_int
module P = Crdt_proto.Delta_sync.Make (Si) (Crdt_proto.Delta_sync.Bp_rr_config)
module R = Runner.Make (P)

let unique_ops topo ~round ~node _ =
  Workload.gset ~nodes:(Topology.size topo) ~round ~node ()

let runner_tests =
  [
    Alcotest.test_case "one round record per measured round" `Quick (fun () ->
        let topo = Topology.ring 5 in
        let res =
          R.run ~equal:Si.equal ~topology:topo ~rounds:7 ~ops:(unique_ops topo)
            ()
        in
        check_int "rounds" 7 (Array.length res.R.rounds));
    Alcotest.test_case "quiescent tail converges a slow topology" `Quick
      (fun () ->
        (* A long line needs ~diameter extra rounds after the last op. *)
        let topo = Topology.line 10 in
        let res =
          R.run ~equal:Si.equal ~topology:topo ~rounds:3 ~ops:(unique_ops topo)
            ()
        in
        check "converged" true res.R.converged;
        check "needed extra rounds" true
          (Array.length res.R.quiesce_rounds > 0));
    Alcotest.test_case "quiesce limit bounds the tail" `Quick (fun () ->
        let topo = Topology.line 12 in
        let res =
          R.run ~quiesce_limit:1 ~equal:Si.equal ~topology:topo ~rounds:2
            ~ops:(unique_ops topo) ()
        in
        check "did not converge within 1 round" false res.R.converged;
        check_int "tail bounded" 1 (Array.length res.R.quiesce_rounds));
    Alcotest.test_case "message counts are positive when traffic flows"
      `Quick (fun () ->
        let topo = Topology.ring 4 in
        let res =
          R.run ~equal:Si.equal ~topology:topo ~rounds:2 ~ops:(unique_ops topo)
            ()
        in
        Array.iter
          (fun (r : Metrics.round) ->
            check "messages" true (r.messages > 0);
            check "payload" true (r.payload > 0))
          res.R.rounds);
    Alcotest.test_case "same seed ⇒ identical faulty runs" `Quick (fun () ->
        let go () =
          let topo = Topology.partial_mesh 6 in
          let faults =
            {
              R.no_faults with
              duplicate = 0.4;
              shuffle = true;
              seed = 123;
            }
          in
          let res =
            R.run ~faults ~equal:Si.equal ~topology:topo ~rounds:6
              ~ops:(unique_ops topo) ()
          in
          (R.summary res).Metrics.totals.payload
        in
        check_int "deterministic" (go ()) (go ()));
    Alcotest.test_case "duplication increases delivered traffic" `Quick
      (fun () ->
        (* Duplicated δ-groups are re-handled; with BP+RR they are
           filtered, but messages still count. *)
        let topo = Topology.ring 6 in
        let base =
          R.run ~equal:Si.equal ~topology:topo ~rounds:6 ~ops:(unique_ops topo)
            ()
        in
        let faults =
          {
            R.no_faults with
            duplicate = 0.9;
            seed = 5;
          }
        in
        let dup =
          R.run ~faults ~equal:Si.equal ~topology:topo ~rounds:6
            ~ops:(unique_ops topo) ()
        in
        check "both converge" true (base.R.converged && dup.R.converged);
        check "same final state" true
          (Si.equal base.R.finals.(0) dup.R.finals.(0)));
    Alcotest.test_case "ops callback sees the node's current state" `Quick
      (fun () ->
        let topo = Topology.ring 4 in
        let saw_growth = ref false in
        let _ =
          R.run ~equal:Si.equal ~topology:topo ~rounds:5
            ~ops:(fun ~round ~node state ->
              if round > 2 && Si.cardinal state > 0 then saw_growth := true;
              [ (round * 100) + node ])
            ()
        in
        check "state visible to workload" true !saw_growth);
  ]

module H = Harness.Make (Si)

let harness_tests =
  [
    Alcotest.test_case "default selection runs all ten protocols" `Quick
      (fun () ->
        let topo = Topology.ring 5 in
        let outcomes =
          H.run ~topology:topo ~rounds:4 ~ops:(unique_ops topo) ()
        in
        check_int "ten" 10 (List.length outcomes);
        check "all converged" true
          (List.for_all (fun (o : Harness.outcome) -> o.converged) outcomes));
    Alcotest.test_case "a named selection runs classic and bp+rr" `Quick
      (fun () ->
        let topo = Topology.ring 5 in
        let outcomes =
          H.run ~selection:[ "delta-bp+rr"; "delta-classic" ]
            ~topology:topo ~rounds:4 ~ops:(unique_ops topo) ()
        in
        Alcotest.(check (list string))
          "names"
          [ "delta-classic"; "delta-bp+rr" ]
          (List.map (fun (o : Harness.outcome) -> o.protocol) outcomes));
    Alcotest.test_case "an unknown protocol name is rejected" `Quick
      (fun () ->
        let rejects f =
          try
            ignore (f ());
            false
          with Invalid_argument _ -> true
        in
        let topo = Topology.ring 3 in
        check "run" true
          (rejects (fun () ->
               H.run ~selection:[ "delta-bp+rr"; "delta-bogus" ]
                 ~topology:topo ~rounds:1 ~ops:(unique_ops topo) ()));
        check "mask_unsupported" true
          (rejects (fun () -> H.mask_unsupported Fault.none [ "delta-bogus" ])));
    Alcotest.test_case "baseline finds bp+rr" `Quick (fun () ->
        let topo = Topology.ring 5 in
        let outcomes =
          H.run ~selection:[ "delta-classic"; "delta-bp+rr" ] ~topology:topo
            ~rounds:4 ~ops:(unique_ops topo) ()
        in
        Alcotest.(check string)
          "baseline" "delta-bp+rr"
          (Harness.baseline outcomes).protocol);
    Alcotest.test_case "baseline falls back when bp+rr is masked" `Quick
      (fun () ->
        (* Fault runs may exclude plain bp+rr (it does not tolerate
           loss); the baseline then degrades to the first outcome
           instead of crashing the report. *)
        let only =
          {
            Harness.protocol = "state-based";
            summary = Metrics.summarize [||];
            full = Metrics.summarize [||];
            converged = true;
          }
        in
        Alcotest.(check string)
          "fallback" "state-based"
          (Harness.baseline [ only ]).protocol;
        check "raises on empty" true
          (try
             ignore (Harness.baseline []);
             false
           with Invalid_argument msg -> msg = "no protocol selected"));
    Alcotest.test_case "protocol names are stable identifiers" `Quick
      (fun () ->
        let topo = Topology.ring 5 in
        let outcomes =
          H.run ~topology:topo ~rounds:2 ~ops:(unique_ops topo) ()
        in
        Alcotest.(check (list string))
          "order and names"
          [
            "state-based"; "delta-classic"; "delta-bp"; "delta-rr";
            "delta-bp+rr"; "scuttlebutt"; "scuttlebutt-gc"; "op-based";
            "merkle"; "conflict-sync";
          ]
          (List.map (fun (o : Harness.outcome) -> o.protocol) outcomes));
  ]

let () =
  Alcotest.run "runner & harness"
    [ ("runner", runner_tests); ("harness", harness_tests) ]
