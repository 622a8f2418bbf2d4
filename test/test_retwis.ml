(* Tests for the Retwis application: data model queries, the Table II
   operation mix, and end-to-end convergence of the replicated store. *)

open Crdt_core
open Crdt_sim
open Crdt_retwis

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let i0 = Replica_id.of_int 0
let i1 = Replica_id.of_int 1

let model_tests =
  [
    Alcotest.test_case "follow updates the followee's follower set" `Quick
      (fun () ->
        let st = User_state.mutate (Follow 7) i0 User_state.bottom in
        Alcotest.(check (list int)) "followers" [ 7 ] (User_state.followers st));
    Alcotest.test_case "post lands on the author's wall" `Quick (fun () ->
        let st =
          User_state.mutate
            (Post { tweet_id = "t1"; content = "hello" })
            i0 User_state.bottom
        in
        let wall = User_state.wall st in
        check_int "one tweet" 1 (User_state.Wall.cardinal wall);
        Alcotest.(check string)
          "content" "hello"
          (Lww_register.value (User_state.Wall.find "t1" wall)));
    Alcotest.test_case "timeline returns the 10 newest, newest first" `Quick
      (fun () ->
        let st =
          List.fold_left
            (fun st ts ->
              User_state.mutate
                (Timeline_add
                   { timestamp = ts; tweet_id = Printf.sprintf "t%d" ts })
                i0 st)
            User_state.bottom
            (List.init 15 (fun k -> k + 1))
        in
        let tl = User_state.recent_timeline st in
        check_int "limit 10" 10 (List.length tl);
        check_int "newest first" 15 (fst (List.hd tl));
        check "descending" true
          (let rec desc = function
             | (a, _) :: ((b, _) :: _ as rest) -> a > b && desc rest
             | _ -> true
           in
           desc tl));
    Alcotest.test_case "concurrent follows of the same user merge" `Quick
      (fun () ->
        let at_a = User_state.mutate (Follow 1) i0 User_state.bottom in
        let at_b = User_state.mutate (Follow 2) i1 User_state.bottom in
        Alcotest.(check (list int))
          "both followers" [ 1; 2 ]
          (User_state.followers (User_state.join at_a at_b)));
  ]

(* A sharded replica's per-user objects after applying [ops] at replica
   0, in the association shape [Workload.ops_sharded] reads. *)
let apply_ops objects ops =
  List.fold_left
    (fun objects (user, op) ->
      let st =
        Option.value (List.assoc_opt user objects) ~default:User_state.bottom
      in
      (user, User_state.mutate op i0 st) :: List.remove_assoc user objects)
    objects ops

let workload_tests =
  [
    Alcotest.test_case "operation mix matches Table II (15/35/50)" `Quick
      (fun () ->
        let wl = Workload.make ~seed:1 ~users:200 ~coefficient:1.0 in
        let objects = ref [] in
        for round = 0 to 2000 do
          let ops = Workload.ops_sharded wl ~round ~node:0 !objects in
          objects := apply_ops !objects ops
        done;
        let follows, posts, reads, _ = Workload.mix wl in
        check (Printf.sprintf "follows %.1f%%" follows) true
          (abs_float (follows -. 15.) < 3.);
        check (Printf.sprintf "posts %.1f%%" posts) true
          (abs_float (posts -. 35.) < 3.);
        check (Printf.sprintf "reads %.1f%%" reads) true
          (abs_float (reads -. 50.) < 3.));
    Alcotest.test_case "posts fan out to followers (1 + #followers updates)"
      `Quick (fun () ->
        let wl = Workload.make ~seed:2 ~users:50 ~coefficient:0.8 in
        (* Seed a replica in which user 0 (zipf head) has 5 followers. *)
        let objects =
          apply_ops []
            (List.map (fun f -> (0, User_state.Follow f)) [ 1; 2; 3; 4; 5 ])
        in
        (* Find a round where the generated op is a post by user 0. *)
        let rec hunt round =
          if round > 5000 then Alcotest.fail "no post by the zipf head found"
          else
            let ops = Workload.ops_sharded wl ~round ~node:0 objects in
            match ops with
            | (0, User_state.Post _) :: rest ->
                check_int "5 timeline pushes" 5 (List.length rest);
                List.iter
                  (fun (_, op) ->
                    match op with
                    | User_state.Timeline_add _ -> ()
                    | _ -> Alcotest.fail "expected a timeline push")
                  rest
            | _ -> hunt (round + 1)
        in
        hunt 0);
    Alcotest.test_case "tweet ids are 31 bytes, content 270 bytes" `Quick
      (fun () ->
        let wl = Workload.make ~seed:3 ~users:50 ~coefficient:1.0 in
        let rec hunt round =
          if round > 2000 then Alcotest.fail "no post found"
          else
            match Workload.ops_sharded wl ~round ~node:0 [] with
            | (_, User_state.Post { tweet_id; content }) :: _ ->
                check_int "id bytes" 31 (String.length tweet_id);
                check_int "content bytes" 270 (String.length content)
            | _ -> hunt (round + 1)
        in
        hunt 0);
  ]

(* End-to-end replication of the sharded store. *)
module Classic = Sharded_store.Delta (Crdt_proto.Delta_sync.Classic_config)
module BpRr = Sharded_store.Delta (Crdt_proto.Delta_sync.Bp_rr_config)
module Rc = Runner.Make (Classic)
module Rb = Runner.Make (BpRr)

let replication_tests =
  [
    Alcotest.test_case "sharded store converges under the retwis workload"
      `Quick (fun () ->
        let topo = Topology.partial_mesh 8 in
        let wl = Workload.make ~seed:5 ~users:100 ~coefficient:1.0 in
        let res =
          Rb.run ~equal:BpRr.equal_states ~topology:topo ~rounds:15
            ~ops:(fun ~round ~node state ->
              Workload.ops_sharded wl ~round ~node state)
            ()
        in
        check "converged" true res.Rb.converged);
    Alcotest.test_case "classic ships at least as much as BP+RR" `Quick
      (fun () ->
        let topo = Topology.partial_mesh 8 in
        let run_classic () =
          let wl = Workload.make ~seed:7 ~users:100 ~coefficient:1.25 in
          let res =
            Rc.run ~equal:Classic.equal_states ~topology:topo ~rounds:15
              ~ops:(fun ~round ~node state ->
                Workload.ops_sharded wl ~round ~node state)
              ()
          in
          Metrics.total_transmission_bytes (Rc.summary res)
        in
        let run_bprr () =
          let wl = Workload.make ~seed:7 ~users:100 ~coefficient:1.25 in
          let res =
            Rb.run ~equal:BpRr.equal_states ~topology:topo ~rounds:15
              ~ops:(fun ~round ~node state ->
                Workload.ops_sharded wl ~round ~node state)
              ()
          in
          Metrics.total_transmission_bytes (Rb.summary res)
        in
        check "classic ≥ bp+rr" true (run_classic () >= run_bprr ()));
  ]

let () =
  Alcotest.run "retwis"
    [
      ("data model", model_tests);
      ("workload (Table II)", workload_tests);
      ("replication", replication_tests);
    ]
