(* The adversity layer's contract, protocol × fault × topology:

   - structurally invalid fault plans are rejected up front;
   - plans demanding an undeclared fault class are rejected up front
     (the former behaviour was a silently diverged run);
   - every protocol declaring tolerance for a class actually converges
     under it: partition-heal, crash–restart, per-link delay, loss, and
     a combined storm — on mesh and tree topologies, with the final
     state carrying exactly the operations that were performed;
   - the crash/recover split preserves the durable CRDT state for every
     protocol;
   - fault accounting is exact: dropped/held/partitioned counters, the
     delivered-vs-dropped balance under a fixed seed, and the satellite
     fix that dropped messages no longer inflate the delivered tallies;
   - the whole layer is bit-identical across engine domain counts. *)

open Crdt_core
open Crdt_sim
module Workload = Crdt_engine.Workload

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

module Si = Gset.Of_int
module Protocols = Crdt_engine.Registry.For (Si)

module State = Crdt_proto.State_sync.Make (Si)
module Classic = Crdt_proto.Delta_sync.Make (Si) (Crdt_proto.Delta_sync.Classic_config)
module BpRr = Crdt_proto.Delta_sync.Make (Si) (Crdt_proto.Delta_sync.Bp_rr_config)
module Ack = Crdt_proto.Delta_sync.Make (Si) (Crdt_proto.Delta_sync.Ack_config)
module Sb = Crdt_proto.Scuttlebutt.Make (Si) (Crdt_proto.Scuttlebutt.No_gc_config)
module SbGc = Crdt_proto.Scuttlebutt.Make (Si) (Crdt_proto.Scuttlebutt.Gc_config)
module Op = Crdt_proto.Op_sync.Make (Si)
module Merkle = Crdt_proto.Merkle_sync.Make (Si)

module F (P : Protocols.S) = struct
  module R = Runner.Make (P)

  let go ?(quiesce_limit = 64) ?(domains = 1) ~faults ~topology ~rounds () =
    R.run ~faults ~quiesce_limit ~domains ~equal:Si.equal ~topology ~rounds
      ~ops:(fun ~round ~node _ ->
        Workload.gset ~nodes:(Topology.size topology) ~round ~node ())
      ()

  (* Unique-adds workload ⇒ the converged state must hold exactly one
     element per (live node, round) pair. *)
  let converges_to ?quiesce_limit ~faults ~topology ~rounds ~expect_weight name
      =
    let res = go ?quiesce_limit ~faults ~topology ~rounds () in
    check (name ^ ": converged") true res.R.converged;
    check_int (name ^ ": final weight") expect_weight
      (Si.weight res.R.finals.(0));
    res
end

module F_state = F (State)
module F_classic = F (Classic)
module F_bprr = F (BpRr)
module F_ack = F (Ack)
module F_sb = F (Sb)
module F_sbgc = F (SbGc)
module F_op = F (Op)
module F_merkle = F (Merkle)

let raises_invalid f =
  try
    ignore (f ());
    false
  with Invalid_argument _ -> true

(* -- plan validation ----------------------------------------------------- *)

let validate_tests =
  let v ?(nodes = 8) ?(rounds = 10) plan () =
    Fault.validate ~nodes ~rounds plan
  in
  let reject name plan =
    Alcotest.test_case name `Quick (fun () ->
        check "rejected" true (raises_invalid (v plan)))
  in
  [
    Alcotest.test_case "the empty plan passes" `Quick (fun () ->
        v Fault.none ());
    reject "drop probability above 1"
      { Fault.none with Fault.drop = 1.5 };
    reject "negative duplicate probability"
      { Fault.none with Fault.duplicate = -0.1 };
    reject "partition with no islands"
      { Fault.none with Fault.partitions = [ { Fault.from_round = 0; heal_round = 2; islands = [] } ] };
    reject "partition with an empty window"
      { Fault.none with Fault.partitions = [ { Fault.from_round = 3; heal_round = 3; islands = [ [ 0 ] ] } ] };
    reject "partition healing after the schedule ends"
      { Fault.none with Fault.partitions = [ { Fault.from_round = 0; heal_round = 99; islands = [ [ 0 ] ] } ] };
    reject "node listed in two islands"
      { Fault.none with Fault.partitions = [ { Fault.from_round = 0; heal_round = 2; islands = [ [ 0; 1 ]; [ 1; 2 ] ] } ] };
    reject "island node out of range"
      { Fault.none with Fault.partitions = [ { Fault.from_round = 0; heal_round = 2; islands = [ [ 42 ] ] } ] };
    reject "delay of zero rounds"
      { Fault.none with Fault.delays = [ { Fault.src = 0; dst = 1; hold = 0 } ] };
    reject "crash that never recovers in-schedule"
      { Fault.none with Fault.crashes = [ { Fault.victim = 0; crash_round = 2; recover_round = 99 } ] };
    reject "crash window of zero rounds"
      { Fault.none with Fault.crashes = [ { Fault.victim = 0; crash_round = 2; recover_round = 2 } ] };
    reject "overlapping crash windows on one victim"
      { Fault.none with
        Fault.crashes =
          [
            { Fault.victim = 0; crash_round = 1; recover_round = 5 };
            { Fault.victim = 0; crash_round = 3; recover_round = 7 };
          ];
      };
    Alcotest.test_case "smart constructors validate eagerly" `Quick (fun () ->
        check "bad crash" true
          (raises_invalid (fun () ->
               Fault.crash ~victim:0 ~crash_round:5 ~recover_round:2));
        check "bad delay" true
          (raises_invalid (fun () -> Fault.delay ~src:0 ~dst:1 ~hold:(-1)));
        check "bad partition" true
          (raises_invalid (fun () ->
               Fault.partition ~from_round:2 ~heal_round:1 [ [ 0 ] ])));
  ]

(* -- capability gate ------------------------------------------------------ *)

let capability_tests =
  let drop_plan = { Fault.none with Fault.drop = 0.2 } in
  let part_plan =
    { Fault.none with
      Fault.partitions = [ Fault.partition ~from_round:0 ~heal_round:2 [ [ 0 ] ] ];
    }
  in
  let crash_plan =
    { Fault.none with
      Fault.crashes = [ Fault.crash ~victim:0 ~crash_round:1 ~recover_round:2 ];
    }
  in
  [
    Alcotest.test_case "declared capability records" `Quick (fun () ->
        let open Crdt_proto.Protocol_intf in
        let all c = c.tolerates_drop && c.tolerates_partition
                    && c.tolerates_delay && c.tolerates_crash in
        check "state tolerates everything" true (all State.capabilities);
        check "merkle tolerates everything" true (all Merkle.capabilities);
        check "scuttlebutt tolerates everything" true (all Sb.capabilities);
        check "ack-mode delta tolerates everything" true (all Ack.capabilities);
        check "plain bp+rr survives neither loss nor cuts" true
          ((not BpRr.capabilities.tolerates_drop)
          && (not BpRr.capabilities.tolerates_partition)
          && BpRr.capabilities.tolerates_delay
          && BpRr.capabilities.tolerates_crash);
        check "op-based only survives delay" true
          ((not Op.capabilities.tolerates_drop)
          && (not Op.capabilities.tolerates_partition)
          && Op.capabilities.tolerates_delay
          && not Op.capabilities.tolerates_crash));
    Alcotest.test_case "runner rejects drop for plain bp+rr" `Quick (fun () ->
        check "rejected" true
          (raises_invalid (fun () ->
               F_bprr.go ~faults:drop_plan ~topology:(Topology.ring 5)
                 ~rounds:3 ())));
    Alcotest.test_case "runner rejects partitions for op-based" `Quick
      (fun () ->
        check "rejected" true
          (raises_invalid (fun () ->
               F_op.go ~faults:part_plan ~topology:(Topology.ring 5) ~rounds:3
                 ())));
    Alcotest.test_case "runner rejects crash for op-based" `Quick (fun () ->
        check "rejected" true
          (raises_invalid (fun () ->
               F_op.go ~faults:crash_plan ~topology:(Topology.ring 5) ~rounds:3
                 ())));
    Alcotest.test_case "harness masks unsupported protocols by name" `Quick
      (fun () ->
        let module H = Harness.Make (Si) in
        let sel, masked =
          H.mask_unsupported drop_plan
            ("delta-bp+rr-ack" :: Harness.default_protocols)
        in
        check "bp+rr masked" true (not (List.mem "delta-bp+rr" sel));
        check "op masked" true (not (List.mem "op-based" sel));
        check "state kept" true (List.mem "state-based" sel);
        check "ack kept" true (List.mem "delta-bp+rr-ack" sel);
        check "masked names reported" true
          (List.mem "delta-bp+rr" masked && List.mem "op-based" masked);
        let sel', masked' = H.mask_unsupported Fault.none sel in
        check "no-fault masking is the identity" true
          (sel' = sel && masked' = []));
  ]

(* -- partition-heal convergence ------------------------------------------ *)

let partition_tests =
  let plan =
    { Fault.none with
      Fault.partitions =
        [ Fault.partition ~from_round:2 ~heal_round:6 [ [ 0; 1; 2 ] ] ];
    }
  in
  let rounds = 10 in
  let mesh = Topology.partial_mesh 8 and tree = Topology.tree 7 in
  let case name topology run =
    Alcotest.test_case
      (Printf.sprintf "%s converges after heal on %s" name
         (Topology.name topology))
      `Quick
      (fun () ->
        run ~faults:plan ~topology ~rounds
          ~expect_weight:(Topology.size topology * rounds))
  in
  [
    case "state-based" mesh (fun ~faults ~topology ~rounds ~expect_weight ->
        ignore
          (F_state.converges_to ~faults ~topology ~rounds ~expect_weight
             "state/mesh"));
    case "state-based" tree (fun ~faults ~topology ~rounds ~expect_weight ->
        ignore
          (F_state.converges_to ~faults ~topology ~rounds ~expect_weight
             "state/tree"));
    case "delta-ack" mesh (fun ~faults ~topology ~rounds ~expect_weight ->
        ignore
          (F_ack.converges_to ~faults ~topology ~rounds ~expect_weight
             "ack/mesh"));
    case "delta-ack" tree (fun ~faults ~topology ~rounds ~expect_weight ->
        ignore
          (F_ack.converges_to ~faults ~topology ~rounds ~expect_weight
             "ack/tree"));
    case "scuttlebutt" mesh (fun ~faults ~topology ~rounds ~expect_weight ->
        ignore
          (F_sb.converges_to ~faults ~topology ~rounds ~expect_weight
             "sb/mesh"));
    case "scuttlebutt-gc" mesh (fun ~faults ~topology ~rounds ~expect_weight ->
        ignore
          (F_sbgc.converges_to ~faults ~topology ~rounds ~expect_weight
             "sb-gc/mesh"));
    case "scuttlebutt-gc" tree (fun ~faults ~topology ~rounds ~expect_weight ->
        ignore
          (F_sbgc.converges_to ~faults ~topology ~rounds ~expect_weight
             "sb-gc/tree"));
    case "merkle" mesh (fun ~faults ~topology ~rounds ~expect_weight ->
        ignore
          (F_merkle.converges_to ~faults ~topology ~rounds ~expect_weight
             "merkle/mesh"));
    Alcotest.test_case "cut messages are counted as partitioned" `Quick
      (fun () ->
        let res =
          F_state.go ~faults:plan ~topology:mesh ~rounds:10 ()
        in
        let s = F_state.R.full_summary res in
        check "partitioned > 0" true (s.Metrics.totals.partitioned > 0);
        check "nothing dropped or held" true
          (s.Metrics.totals.dropped = 0 && s.Metrics.totals.held = 0));
  ]

(* -- crash–restart -------------------------------------------------------- *)

let crash_tests =
  let crash_round = 2 and recover_round = 6 in
  let rounds = 10 in
  let plan =
    { Fault.none with
      Fault.crashes = [ Fault.crash ~victim:3 ~crash_round ~recover_round ];
    }
  in
  let mesh = Topology.partial_mesh 8 in
  (* The victim performs no ops while down: [crash_round, recover_round). *)
  let expect_weight = (8 * rounds) - (recover_round - crash_round) in
  let case name run =
    Alcotest.test_case
      (Printf.sprintf "%s converges after crash–restart" name) `Quick
      (fun () -> ignore (run ()))
  in
  [
    case "state-based" (fun () ->
        F_state.converges_to ~faults:plan ~topology:mesh ~rounds ~expect_weight
          "state");
    case "delta-classic" (fun () ->
        F_classic.converges_to ~faults:plan ~topology:mesh ~rounds
          ~expect_weight "classic");
    case "delta-bp+rr" (fun () ->
        F_bprr.converges_to ~faults:plan ~topology:mesh ~rounds ~expect_weight
          "bp+rr");
    case "delta-bp+rr-ack" (fun () ->
        F_ack.converges_to ~faults:plan ~topology:mesh ~rounds ~expect_weight
          "ack");
    case "scuttlebutt" (fun () ->
        F_sb.converges_to ~faults:plan ~topology:mesh ~rounds ~expect_weight
          "sb");
    case "scuttlebutt-gc" (fun () ->
        F_sbgc.converges_to ~faults:plan ~topology:mesh ~rounds ~expect_weight
          "sb-gc");
    case "merkle" (fun () ->
        F_merkle.converges_to ~faults:plan ~topology:mesh ~rounds
          ~expect_weight "merkle");
    Alcotest.test_case "messages to a crashed node count as dropped" `Quick
      (fun () ->
        let res = F_state.go ~faults:plan ~topology:mesh ~rounds () in
        let s = F_state.R.full_summary res in
        check "dropped > 0" true (s.Metrics.totals.dropped > 0));
    Alcotest.test_case "back-to-back crash windows on one victim" `Quick
      (fun () ->
        let plan =
          { Fault.none with
            Fault.crashes =
              [
                Fault.crash ~victim:2 ~crash_round:1 ~recover_round:3;
                Fault.crash ~victim:2 ~crash_round:3 ~recover_round:5;
              ];
          }
        in
        ignore
          (F_state.converges_to ~faults:plan ~topology:mesh ~rounds
             ~expect_weight:((8 * rounds) - 4)
             "double crash"));
  ]

(* -- per-link delay -------------------------------------------------------- *)

let delay_tests =
  let topology = Topology.full_mesh 6 in
  let rounds = 8 in
  let plan =
    { Fault.none with
      Fault.delays =
        [ Fault.delay ~src:0 ~dst:1 ~hold:2; Fault.delay ~src:4 ~dst:2 ~hold:3 ];
    }
  in
  let case name run =
    Alcotest.test_case (Printf.sprintf "%s converges under delay" name) `Quick
      (fun () -> ignore (run ()))
  in
  let expect_weight = 6 * rounds in
  [
    case "state-based" (fun () ->
        F_state.converges_to ~faults:plan ~topology ~rounds ~expect_weight
          "state");
    case "delta-classic" (fun () ->
        F_classic.converges_to ~faults:plan ~topology ~rounds ~expect_weight
          "classic");
    case "delta-bp+rr" (fun () ->
        F_bprr.converges_to ~faults:plan ~topology ~rounds ~expect_weight
          "bp+rr");
    case "op-based" (fun () ->
        F_op.converges_to ~faults:plan ~topology ~rounds ~expect_weight "op");
    case "scuttlebutt" (fun () ->
        F_sb.converges_to ~faults:plan ~topology ~rounds ~expect_weight "sb");
    case "merkle" (fun () ->
        F_merkle.converges_to ~faults:plan ~topology ~rounds ~expect_weight
          "merkle");
    Alcotest.test_case "held messages are counted, then delivered" `Quick
      (fun () ->
        let res = F_state.go ~faults:plan ~topology ~rounds () in
        let s = F_state.R.full_summary res in
        check "held > 0" true (s.Metrics.totals.held > 0);
        check "nothing dropped" true (s.Metrics.totals.dropped = 0));
  ]

(* -- loss accounting (the metrics-inflation fix) -------------------------- *)

let loss_tests =
  let ring = Topology.ring 5 in
  [
    Alcotest.test_case "total loss delivers nothing and diverges" `Quick
      (fun () ->
        let faults = { Fault.none with Fault.drop = 1.0 } in
        let res =
          F_state.go ~quiesce_limit:4 ~faults ~topology:ring ~rounds:3 ()
        in
        check "not converged" true (not res.F_state.R.converged);
        let s = F_state.R.full_summary res in
        check_int "no message delivered" 0 s.Metrics.totals.messages;
        check_int "no payload counted" 0 s.Metrics.totals.payload;
        check_int "no metadata bytes counted" 0 s.Metrics.totals.metadata_bytes;
        check "everything dropped" true (s.Metrics.totals.dropped > 0));
    Alcotest.test_case "delivered + dropped balances the sends (seed 42)"
      `Quick
      (fun () ->
        (* state-based broadcasts to every neighbor each tick, so the
           measured-phase send count is rounds × Σ degree = 4 × 10,
           independent of faults — the drop draw only decides which side
           of the ledger each message lands on. *)
        let rounds = 4 in
        let faults = { Fault.none with Fault.drop = 0.3; seed = 42 } in
        let res = F_state.go ~faults ~topology:ring ~rounds () in
        let s = F_state.R.summary res in
        check_int "delivered + dropped = sent" (rounds * 10)
          (s.Metrics.totals.messages + s.Metrics.totals.dropped);
        (* Regression pin: these exact totals changed when the metrics
           inflation bug was fixed (messages used to be counted before
           the drop check); any accounting change must show up here. *)
        check_int "delivered (pinned)" 25 s.Metrics.totals.messages;
        check_int "dropped (pinned)" 15 s.Metrics.totals.dropped);
    Alcotest.test_case "ack-mode delta converges through heavy loss" `Quick
      (fun () ->
        let faults = { Fault.none with Fault.drop = 0.4; seed = 5 } in
        ignore
          (F_ack.converges_to ~faults ~topology:(Topology.partial_mesh 8)
             ~rounds:8 ~expect_weight:(8 * 8) "ack under loss"));
  ]

(* -- combined storm + engine bit-identity --------------------------------- *)

let storm_plan =
  {
    Fault.drop = 0.15;
    duplicate = 0.2;
    shuffle = true;
    seed = 21;
    partitions = [ Fault.partition ~from_round:1 ~heal_round:4 [ [ 0; 1 ] ] ];
    delays = [ Fault.delay ~src:2 ~dst:3 ~hold:2 ];
    crashes = [ Fault.crash ~victim:5 ~crash_round:3 ~recover_round:7 ];
  }

let storm_tests =
  let topology = Topology.partial_mesh 8 in
  let rounds = 12 in
  [
    Alcotest.test_case "ack-mode delta survives the combined storm" `Quick
      (fun () ->
        ignore
          (F_ack.converges_to ~faults:storm_plan ~topology ~rounds
             ~expect_weight:((8 * rounds) - 4)
             "storm"));
    Alcotest.test_case "state-based survives the combined storm" `Quick
      (fun () ->
        ignore
          (F_state.converges_to ~faults:storm_plan ~topology ~rounds
             ~expect_weight:((8 * rounds) - 4)
             "storm"));
    Alcotest.test_case "storm run is bit-identical across domain counts"
      `Quick
      (fun () ->
        let go domains =
          F_ack.go ~domains ~faults:storm_plan ~topology ~rounds ()
        in
        let seq = go 1 in
        List.iter
          (fun domains ->
            let par = go domains in
            let module R = F_ack.R in
            check
              (Printf.sprintf "identical at %d domains" domains)
              true
              (seq.R.converged = par.R.converged
              && Array.for_all2 Si.equal seq.R.finals par.R.finals
              && seq.R.rounds = par.R.rounds
              && seq.R.quiesce_rounds = par.R.quiesce_rounds))
          [ 2; 3 ]);
  ]

(* -- crash/recover state preservation ------------------------------------- *)

let law_tests =
  let law (module P : Protocols.S) name =
    Alcotest.test_case (name ^ ": state survives crash + recover") `Quick
      (fun () ->
        let n = P.init ~id:0 ~neighbors:[ 1; 2 ] ~total:3 in
        let n = List.fold_left P.local_update n [ 7; 11; 13 ] in
        let before = P.state n in
        let crashed = P.crash n in
        check (name ^ ": durable through crash") true
          (Si.equal before (P.state crashed));
        check (name ^ ": durable through recover") true
          (Si.equal before (P.state (P.recover crashed))))
  in
  [
    law (module State) "state-based";
    law (module Classic) "delta-classic";
    law (module BpRr) "delta-bp+rr";
    law (module Ack) "delta-bp+rr-ack";
    law (module Sb) "scuttlebutt";
    law (module SbGc) "scuttlebutt-gc";
    law (module Op) "op-based";
    law (module Merkle) "merkle";
  ]

(* -- pairwise recovery (Delta_sync's SyncReq/SyncResp) ------------------- *)

let pairwise_tests =
  [
    Alcotest.test_case "recover_crashed reconciles durable state with a peer"
      `Quick
      (fun () ->
        let id = Replica_id.of_int 0 in
        let durable = List.fold_left (fun s e -> Si.add e id s) Si.bottom [ 1; 2 ] in
        let peer =
          List.fold_left (fun s e -> Si.add e id s) Si.bottom [ 2; 3; 4 ]
        in
        let expected = Si.join durable peer in
        (* A fresh incarnation restarted from its durable image, and a
           peer that holds its state with nothing buffered. *)
        let restarted =
          BpRr.load (BpRr.init ~id:0 ~neighbors:[ 1 ] ~total:2) durable
        in
        let peer =
          BpRr.crash
            (BpRr.load (BpRr.init ~id:1 ~neighbors:[ 0 ] ~total:2) peer)
        in
        let deliver node ~src ~dst msgs =
          List.fold_left
            (fun (n, out) (j, m) ->
              check_int "addressed to the other replica" dst j;
              let n, o = BpRr.handle n ~src m in
              (n, out @ o))
            (node, []) msgs
        in
        let restarted, reqs = BpRr.tick restarted in
        let peer, resps = deliver peer ~src:0 ~dst:1 reqs in
        let restarted, more = deliver restarted ~src:1 ~dst:0 resps in
        check "restarted caught up" true
          (Si.equal (BpRr.state restarted) expected);
        check "peer absorbed durable" true (Si.equal (BpRr.state peer) expected);
        check_int "two messages" 2
          (List.length reqs + List.length resps + List.length more);
        check_int "no request re-sent once answered" 0
          (List.length (snd (BpRr.tick restarted))));
  ]

let () =
  Alcotest.run "fault matrix"
    [
      ("validation", validate_tests);
      ("capability gate", capability_tests);
      ("partition-heal", partition_tests);
      ("crash-restart", crash_tests);
      ("delay", delay_tests);
      ("loss accounting", loss_tests);
      ("storm", storm_tests);
      ("crash/recover law", law_tests);
      ("pairwise recovery", pairwise_tests);
    ]
