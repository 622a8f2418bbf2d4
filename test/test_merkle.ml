(* Tests for the hash-tree anti-entropy baseline (related work [32,33]):
   digest walks locate divergence, matching digests exchange nothing, and
   replicas converge across topologies. *)

open Crdt_core
open Crdt_proto
open Crdt_sim
module Workload = Crdt_engine.Workload

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

module S = Gset.Of_string
module P = Merkle_sync.Make (S)

let behavioural =
  [
    Alcotest.test_case "identical replicas exchange only root digests"
      `Quick (fun () ->
        let a = P.init ~id:0 ~neighbors:[ 1 ] ~total:2 in
        let b = P.init ~id:1 ~neighbors:[ 0 ] ~total:2 in
        let a = P.local_update a "x" in
        let b = P.local_update b "x" in
        let a, msgs = P.tick a in
        ignore a;
        let _, replies = P.handle b ~src:0 (List.assoc 1 msgs) in
        check "silence on matching roots" true (replies = []));
    Alcotest.test_case "divergence triggers a subtree walk ending in buckets"
      `Quick (fun () ->
        let a = P.init ~id:0 ~neighbors:[ 1 ] ~total:2 in
        let b = P.init ~id:1 ~neighbors:[ 0 ] ~total:2 in
        let a = P.local_update a "only-at-a" in
        let a, msgs = P.tick a in
        (* Drive the cascade by hand until it goes quiet. *)
        let nodes = [| a; b |] in
        let queue = Queue.create () in
        List.iter (fun (d, m) -> Queue.add (0, d, m) queue) msgs;
        let deliveries = ref 0 in
        while not (Queue.is_empty queue) do
          let src, dst, m = Queue.pop queue in
          incr deliveries;
          let n, replies = P.handle nodes.(dst) ~src m in
          nodes.(dst) <- n;
          List.iter (fun (d, m) -> Queue.add (dst, d, m) queue) replies
        done;
        (* Root + depth-1 subtree levels + bucket + bucket reply. *)
        check "multiple exchanges to locate divergence" true (!deliveries >= 5);
        check "b caught up" true (S.mem "only-at-a" (P.state nodes.(1))));
    Alcotest.test_case "bucket replies make the exchange symmetric" `Quick
      (fun () ->
        let a = P.init ~id:0 ~neighbors:[ 1 ] ~total:2 in
        let b = P.init ~id:1 ~neighbors:[ 0 ] ~total:2 in
        let a = P.local_update a "from-a" in
        let b = P.local_update b "from-b" in
        let a, msgs = P.tick a in
        let nodes = [| a; b |] in
        let queue = Queue.create () in
        List.iter (fun (d, m) -> Queue.add (0, d, m) queue) msgs;
        while not (Queue.is_empty queue) do
          let src, dst, m = Queue.pop queue in
          let n, replies = P.handle nodes.(dst) ~src m in
          nodes.(dst) <- n;
          List.iter (fun (d, m) -> Queue.add (dst, d, m) queue) replies
        done;
        (* One digest walk initiated by a suffices for both directions
           when the divergent elements land in the same bucket exchange;
           at minimum a must now know b's element or vice versa. *)
        check "information flowed" true
          (S.mem "from-b" (P.state nodes.(0))
          || S.mem "from-a" (P.state nodes.(1))));
    Alcotest.test_case "digests carry metadata, buckets carry payload"
      `Quick (fun () ->
        let a = P.init ~id:0 ~neighbors:[ 1 ] ~total:2 in
        let a = P.local_update a "x" in
        let _, msgs = P.tick a in
        let root = List.assoc 1 msgs in
        check_int "root has no payload" 0 (P.payload_weight root);
        check "root has metadata" true (P.metadata_weight root > 0));
  ]

module Si = Gset.Of_int
module Pi = Merkle_sync.Make (Si)
module R = Runner.Make (Pi)

let convergence =
  [
    Alcotest.test_case "merkle converges on a mesh" `Quick (fun () ->
        let topo = Topology.partial_mesh 8 in
        let res =
          R.run ~equal:Si.equal ~topology:topo ~rounds:10
            ~ops:(fun ~round ~node _ -> Workload.gset ~nodes:8 ~round ~node ())
            ()
        in
        check "converged" true res.R.converged;
        check_int "all elements" 80 (Si.cardinal res.R.finals.(0)));
    Alcotest.test_case "merkle tolerates duplication and reordering" `Quick
      (fun () ->
        let topo = Topology.ring 6 in
        let faults =
          {
            R.no_faults with
            duplicate = 0.3;
            shuffle = true;
            seed = 77;
          }
        in
        let res =
          R.run ~faults ~equal:Si.equal ~topology:topo ~rounds:8
            ~ops:(fun ~round ~node _ -> Workload.gset ~nodes:6 ~round ~node ())
            ()
        in
        check "converged" true res.R.converged);
    Alcotest.test_case
      "hash digests alone outweigh bp+rr's traffic (the paper's objection)"
      `Quick (fun () ->
        let topo = Topology.ring 6 in
        let ops ~round ~node _ = Workload.gset ~nodes:6 ~round ~node () in
        let module Pd =
          Delta_sync.Make (Si) (Delta_sync.Bp_rr_config) in
        let module Rd = Runner.Make (Pd) in
        let merkle =
          R.run ~equal:Si.equal ~topology:topo ~rounds:10 ~ops ()
        in
        let bprr =
          Rd.run ~equal:Si.equal ~topology:topo ~rounds:10 ~ops ()
        in
        (* Merkle's hash metadata alone — root, subtree and bucket
           digests on the wire — outweighs everything BP+RR sends. *)
        let digest = (R.full_summary merkle).Metrics.totals.digest_bytes in
        let bprr_tx =
          Metrics.total_transmission_bytes (Rd.full_summary bprr)
        in
        check "merkle digests outweigh bp+rr's traffic" true (digest > bprr_tx));
  ]

let () =
  Alcotest.run "merkle anti-entropy"
    [ ("behaviour", behavioural); ("convergence", convergence) ]
