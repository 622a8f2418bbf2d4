(* A miniature Retwis (Twitter clone) running on the replicated store:
   users follow each other and post tweets on one node, and their
   timelines materialize on every other node after synchronization —
   first over classic delta-based sync, then over BP+RR, comparing cost.

   Run with: dune exec examples/retwis_demo.exe *)

open Crdt_core
open Crdt_sim
open Crdt_retwis

let alice = 1
and bob = 2
and carol = 3

(* Script a tiny social scenario as per-round, per-node operations. *)
let script ~round ~node _state : (int * User_state.op) list =
  match (round, node) with
  | 0, 0 ->
      (* bob and carol start following alice. *)
      [ (alice, User_state.Follow bob); (alice, User_state.Follow carol) ]
  | 1, 1 ->
      (* Alice posts from node 1; the post fans out to her followers. *)
      [
        (alice, User_state.Post { tweet_id = "t1"; content = "hello CRDTs" });
        (bob, User_state.Timeline_add { timestamp = 100; tweet_id = "t1" });
        (carol, User_state.Timeline_add { timestamp = 100; tweet_id = "t1" });
      ]
  | 2, 2 ->
      [
        (bob, User_state.Post { tweet_id = "t2"; content = "nice paper" });
      ]
  | _ -> []

module Probe (Cfg : Crdt_proto.Delta_sync.CONFIG) = struct
  module P = Sharded_store.Delta (Cfg)
  module R = Runner.Make (P)

  let run name =
    let topo = Topology.ring 4 in
    let res =
      R.run ~equal:P.equal_states ~topology:topo ~rounds:4 ~ops:script ()
    in
    assert (res.R.converged);
    let s = R.summary res in
    Printf.printf "%-14s transmitted %4d bytes of payload, converged in %d \
                   extra rounds\n"
      name
      s.Crdt_sim.Metrics.totals.payload_bytes
      (Array.length res.R.quiesce_rounds);
    res.R.finals.(3)
end

module Classic = Probe (Crdt_proto.Delta_sync.Classic_config)
module BpRr = Probe (Crdt_proto.Delta_sync.Bp_rr_config)

let () =
  print_string "A 4-node ring replicating a tiny social network:\n\n";
  let final = Classic.run "delta-classic" in
  let final' = BpRr.run "delta-bp+rr" in

  (* Read the application state back from a node that never executed any
     of the operations (node 3). *)
  let find user =
    match List.assoc_opt user final with
    | Some st -> st
    | None -> User_state.bottom
  in
  Printf.printf "\nas seen from node 3:\n";
  Printf.printf "  alice's followers: %s\n"
    (String.concat ", "
       (List.map string_of_int (User_state.followers (find alice))));
  List.iter
    (fun (ts, tweet) -> Printf.printf "  bob's timeline: [%d] %s\n" ts tweet)
    (User_state.recent_timeline (find bob));
  let wall = User_state.wall (find bob) in
  List.iter
    (fun (id, reg) ->
      Printf.printf "  bob's wall: %s = %S\n" id (Lww_register.value reg))
    (User_state.Wall.bindings wall);

  (* Both protocols converge to the same application state. *)
  let module P = Sharded_store.Delta (Crdt_proto.Delta_sync.Classic_config) in
  assert (P.equal_states final final');
  Printf.printf "\nclassic and BP+RR agree on the final state.\n"
