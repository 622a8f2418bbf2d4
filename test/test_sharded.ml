(* Unit tests for the per-object protocol composition (Sharded). *)

open Crdt_core
open Crdt_proto
open Crdt_sim

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

module S = Gset.Of_string

module Key = struct
  type t = int

  let compare = Int.compare
  let byte_size _ = 8
  let codec = Crdt_wire.Codec.int
end

module One = Delta_sync.Make (S) (Delta_sync.Bp_rr_config)
module Sh = Sharded.Make (Key) (S) (One)

let basics =
  [
    Alcotest.test_case "updates land on the right object" `Quick (fun () ->
        let n = Sh.init ~id:0 ~neighbors:[ 1 ] ~total:2 in
        let n = Sh.local_update n (1, "x") in
        let n = Sh.local_update n (2, "y") in
        let st = Sh.state n in
        check "obj 1" true (S.mem "x" (List.assoc 1 st));
        check "obj 2" true (S.mem "y" (List.assoc 2 st));
        check "no cross-talk" false (S.mem "y" (List.assoc 1 st)));
    Alcotest.test_case "tick batches per destination" `Quick (fun () ->
        let n = Sh.init ~id:0 ~neighbors:[ 1; 2 ] ~total:3 in
        let n = Sh.local_update n (1, "x") in
        let n = Sh.local_update n (2, "y") in
        let _, msgs = Sh.tick n in
        (* one bundled message per neighbor, each carrying 2 objects. *)
        check_int "two messages" 2 (List.length msgs);
        List.iter
          (fun (_, batch) -> check_int "2 elements" 2 (Sh.payload_weight batch))
          msgs);
    Alcotest.test_case "quiet objects send nothing" `Quick (fun () ->
        let n = Sh.init ~id:0 ~neighbors:[ 1 ] ~total:2 in
        let n = Sh.local_update n (1, "x") in
        let n, _ = Sh.tick n in
        let _, msgs = Sh.tick n in
        check "silent" true (msgs = []));
    Alcotest.test_case "an idle tick returns the node itself" `Quick
      (fun () ->
        (* Once the buffers have drained, neither the per-object
           delta-bp+rr nodes nor the sharded node are rebuilt. *)
        let n = Sh.init ~id:0 ~neighbors:[ 1 ] ~total:2 in
        let n = Sh.local_update n (1, "x") in
        let n = Sh.local_update n (2, "y") in
        let n, msgs = Sh.tick n in
        check "first tick sends" true (msgs <> []);
        let n', msgs = Sh.tick n in
        check "silent" true (msgs = []);
        check "same sharded node" true (n' == n);
        let o = One.init ~id:0 ~neighbors:[ 1; 2 ] ~total:3 in
        let o, _ = One.tick (One.local_update o "x") in
        let o', msgs = One.tick o in
        check "delta-bp+rr: silent" true (msgs = []);
        check "delta-bp+rr: same node" true (o' == o));
  ]

let equality_tests =
  [
    Alcotest.test_case "equal_states ignores object order" `Quick (fun () ->
        let a = [ (1, S.of_list [ "x" ]); (2, S.of_list [ "y" ]) ] in
        let b = [ (2, S.of_list [ "y" ]); (1, S.of_list [ "x" ]) ] in
        check "equal" true (Sh.equal_states a b));
    Alcotest.test_case "equal_states treats absent as bottom" `Quick (fun () ->
        check "bottom object irrelevant" true
          (Sh.equal_states [ (1, S.bottom) ] []);
        check "non-bottom matters" false
          (Sh.equal_states [ (1, S.of_list [ "x" ]) ] []));
  ]

(* Hand-driven two-node exchange: tick both nodes, deliver every
   message (cascading replies) unless the destination is down. *)
let drain ~down a b =
  let a = ref a and b = ref b in
  let q = Queue.create () in
  let deliver (dst, src, m) =
    if not (List.mem dst down) then
      let node = if dst = 0 then a else b in
      let n, replies = Sh.handle !node ~src m in
      node := n;
      List.iter (fun (d, r) -> Queue.push (d, dst, r) q) replies
  in
  for _ = 1 to 8 do
    let na, ma = Sh.tick !a in
    let nb, mb = Sh.tick !b in
    a := na;
    b := nb;
    List.iter (fun (d, m) -> Queue.push (d, 0, m) q) ma;
    List.iter (fun (d, m) -> Queue.push (d, 1, m) q) mb;
    while not (Queue.is_empty q) do
      deliver (Queue.pop q)
    done
  done;
  (!a, !b)

let crash_tests =
  [
    Alcotest.test_case "crash tolerance is inherited from the object protocol"
      `Quick (fun () ->
        check "delta inner tolerates crash" true
          Sh.capabilities.Protocol_intf.tolerates_crash;
        let module OpInner = Op_sync.Make (S) in
        let module ShOp = Sharded.Make (Key) (S) (OpInner) in
        check "op-based inner declines crash" false
          ShOp.capabilities.Protocol_intf.tolerates_crash);
    Alcotest.test_case "a restarted node asks neighbors for key manifests"
      `Quick (fun () ->
        let n = Sh.recover (Sh.crash (Sh.init ~id:1 ~neighbors:[ 0; 2 ] ~total:3)) in
        let probe n =
          let n, msgs = Sh.tick n in
          let reqs =
            List.filter (fun (_, m) -> Sh.metadata_weight m = 1 && Sh.payload_weight m = 0) msgs
          in
          (n, List.map fst reqs |> List.sort compare)
        in
        let n, dests = probe n in
        check "one request per neighbor" true (dests = [ 0; 2 ]);
        (* unanswered requests are retried on the next tick. *)
        let _, dests = probe n in
        check "retried until answered" true (dests = [ 0; 2 ]));
    Alcotest.test_case "manifests resurrect objects created during downtime"
      `Quick (fun () ->
        let a = Sh.init ~id:0 ~neighbors:[ 1 ] ~total:2 in
        let b = Sh.init ~id:1 ~neighbors:[ 0 ] ~total:2 in
        let a = Sh.local_update a (1, "x") in
        let a, b = drain ~down:[] a b in
        check "warmed up" true (Sh.equal_states (Sh.state a) (Sh.state b));
        (* B goes down; A creates a brand-new object meanwhile.  All
           traffic to B is discarded while it is down. *)
        let b = Sh.crash b in
        let a = Sh.local_update a (2, "y") in
        let a, b = drain ~down:[ 1 ] a b in
        let b = Sh.recover b in
        let a, b = drain ~down:[] a b in
        check "converged after restart" true
          (Sh.equal_states (Sh.state a) (Sh.state b));
        check "restarted node learned the new key" true
          (S.mem "y" (List.assoc 2 (Sh.state b))));
  ]

module R = Runner.Make (Sh)

let convergence_tests =
  [
    Alcotest.test_case "sharded replicas converge across a mesh" `Quick
      (fun () ->
        let topo = Topology.partial_mesh 6 in
        let res =
          R.run ~equal:Sh.equal_states ~topology:topo ~rounds:8
            ~ops:(fun ~round ~node _ ->
              (* spread updates across 3 objects *)
              [ (round mod 3, Printf.sprintf "e-%d-%d" round node) ])
            ()
        in
        check "converged" true res.R.converged;
        let st = res.R.finals.(0) in
        check_int "three objects" 3 (List.length st);
        check_int "all elements present" (8 * 6)
          (List.fold_left (fun acc (_, s) -> acc + S.cardinal s) 0 st));
    Alcotest.test_case "sharded converges through a crash window" `Quick
      (fun () ->
        let topo = Topology.partial_mesh 6 in
        let faults =
          {
            R.no_faults with
            crashes =
              [ { Fault.victim = 1; crash_round = 2; recover_round = 5 } ];
          }
        in
        let res =
          R.run ~faults ~equal:Sh.equal_states ~topology:topo ~rounds:8
            ~ops:(fun ~round ~node _ ->
              [ (round mod 3, Printf.sprintf "e-%d-%d" round node) ])
            ()
        in
        (if not res.R.converged then
           Array.iteri
             (fun i st ->
               Printf.printf "node %d: %s\n" i
                 (String.concat " "
                    (List.map
                       (fun (k, s) ->
                         Printf.sprintf "%d:{%s}" k
                           (String.concat "," (List.sort compare (S.elements s))))
                       (List.sort compare st))))
             res.R.finals);
        check "converged" true res.R.converged);
    Alcotest.test_case "per-object isolation beats a composed store under
contention skew" `Quick (fun () ->
        (* Contention confined to one object leaves the others' classic
           buffers clean; this is the property that makes Fig. 11 behave. *)
        let module ClassicOne = Delta_sync.Make (S) (Delta_sync.Classic_config) in
        let module ShC = Sharded.Make (Key) (S) (ClassicOne) in
        let module Rc = Runner.Make (ShC) in
        let topo = Topology.partial_mesh 6 in
        let res =
          Rc.run ~equal:ShC.equal_states ~topology:topo ~rounds:8
            ~ops:(fun ~round ~node _ ->
              if node = 0 then [ (0, Printf.sprintf "hot-%d" round) ] else [])
            ()
        in
        check "converged" true res.Rc.converged)
  ]

let () =
  Alcotest.run "sharded"
    [
      ("basics", basics);
      ("equality", equality_tests);
      ("crash", crash_tests);
      ("convergence", convergence_tests);
    ]
