(* ConflictSync behaviour suite: the quiet-link digest detection path,
   the IBLT session, the Bloom escalation, the crash/partition/loss
   fault matrix via the runner, and the durability law.  Protocol
   messages are sealed behind PROTOCOL, so the tests observe behaviour —
   convergence, message counts, accounting weights — not constructors. *)

open Crdt_core
open Crdt_proto
open Crdt_sim
module Workload = Crdt_engine.Workload

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

module Si = Gset.Of_int
module P = Conflict_sync.Make (Si) (Conflict_sync.Default_config)

(* Escalation-happy tuning: the IBLT stream gives up almost immediately,
   so any difference beyond a couple of elements exercises the Bloom
   round (and, when a false positive strikes, the residue session). *)
module Aggressive_config = struct
  let fpr = 0.05
  let chunk0 = 2
  let escalate_cells = 4
  let mismatch_streak = 1
  let quiet_ticks = 1
  let session_timeout = 4
end

module Pa = Conflict_sync.Make (Si) (Aggressive_config)

(* Two-replica harness: tick both nodes each round and deliver the whole
   message wave (including reply cascades) before the next round, like a
   lossless link. *)
module Pair
    (C : Lattice_intf.CRDT)
    (P : Protocol_intf.PROTOCOL with type crdt = C.t and type op = C.op) =
struct
  let make () =
    ( P.init ~id:0 ~neighbors:[ 1 ] ~total:2,
      P.init ~id:1 ~neighbors:[ 0 ] ~total:2 )

  (* One round over [nodes] (updated in place); returns how many
     messages it delivered. *)
  let round nodes =
    let queue = Queue.create () in
    Array.iteri
      (fun i n ->
        let n, msgs = P.tick n in
        nodes.(i) <- n;
        List.iter (fun (d, m) -> Queue.add (i, d, m) queue) msgs)
      nodes;
    (* Drain the wave, cascading replies within the round. *)
    let delivered = ref 0 in
    while (not (Queue.is_empty queue)) && !delivered < 10_000 do
      incr delivered;
      let src, dst, m = Queue.pop queue in
      let n, replies = P.handle nodes.(dst) ~src m in
      nodes.(dst) <- n;
      List.iter (fun (d, m') -> Queue.add (dst, d, m') queue) replies
    done;
    !delivered

  (* Rounds until the states agree.  Returns the converged pair, how
     many rounds it took and how many messages they delivered; fails the
     test if [limit] rounds don't suffice. *)
  let converge ?(limit = 32) (a, b) =
    let nodes = [| a; b |] in
    let equal () = C.equal (P.state nodes.(0)) (P.state nodes.(1)) in
    let delivered = ref 0 in
    let rounds = ref 0 in
    while (not (equal ())) && !rounds < limit do
      incr rounds;
      delivered := !delivered + round nodes
    done;
    if not (equal ()) then
      Alcotest.failf "pair did not converge within %d rounds" limit;
    ((nodes.(0), nodes.(1)), !rounds, !delivered)
end

module Pair_default = Pair (Si) (P)
module Pair_aggr = Pair (Si) (Pa)

let add_range p n lo hi =
  let r = ref n in
  for i = lo to hi - 1 do
    r := p !r i
  done;
  !r

(* ------------------------------------------------------------------ *)
(* Digest-driven detection (no crash, no recover hint)                 *)
(* ------------------------------------------------------------------ *)

let detection_tests =
  [
    Alcotest.test_case "identical replicas never open a session" `Quick
      (fun () ->
        let a, b = Pair_default.make () in
        let a = add_range P.local_update a 0 20
        and b = add_range P.local_update b 0 20 in
        (* Same elements on both sides: deltas cross once, digests then
           match forever — a converged pair costs 2 digest messages per
           round and nothing else. *)
        let (_, _), rounds, _ = Pair_default.converge (a, b) in
        check "deltas alone suffice" true (rounds <= 2));
    Alcotest.test_case
      "silent divergence is found by digests alone and repaired" `Quick
      (fun () ->
        (* Divergence with no crash and no in-flight deltas — the only
           path to repair is quiet-link digest mismatch → streak →
           session.  This is the pure detection machinery. *)
        let a, b = Pair_default.make () in
        let a = add_range P.local_update a 0 40 in
        let b = add_range P.local_update b 100 130 in
        (* Burn the δ-buffers while the link is down: tick both, drop
           everything on the floor. *)
        let a = fst (P.tick a) and b = fst (P.tick b) in
        let (a, b), rounds, _ = Pair_default.converge (a, b) in
        check "converged" true (Si.equal (P.state a) (P.state b));
        check_int "union restored" 70 (Si.weight (P.state a));
        (* quiet_ticks=2 + streak=2 means detection needs a few rounds
           but not many; the session itself cascades within one. *)
        check ("repair took " ^ string_of_int rounds ^ " rounds") true
          (rounds >= 2 && rounds <= 10));
    Alcotest.test_case "lower id initiates, higher id only responds" `Quick
      (fun () ->
        (* Symmetric divergence: if both sides initiated we'd see two
           sessions' worth of SyncReq traffic.  The sid namespacing and
           the n.self < src guard make exactly one side open it; we
           observe that the repair converges (and in few rounds — two
           racing sessions would be slower to go quiet). *)
        let a, b = Pair_default.make () in
        let a = add_range P.local_update a 0 10 in
        let b = add_range P.local_update b 50 60 in
        let a = fst (P.tick a) and b = fst (P.tick b) in
        let (a, b), _, _ = Pair_default.converge (a, b) in
        check_int "both hold the union" 20 (Si.weight (P.state a));
        check "equal" true (Si.equal (P.state a) (P.state b)));
  ]

(* ------------------------------------------------------------------ *)
(* Digest upkeep under overwriting updates                             *)
(* ------------------------------------------------------------------ *)

(* A GSet delta never covers an old irreducible, but a map of versions
   does: bumping a bound key replaces {k ↦ v} by {k ↦ v+1} in ⇓x, so the
   incrementally kept digest must also drop the covered {k ↦ v}.  A
   digest that drifted from ⇓x would mismatch a from-scratch one (the
   restarted replica's) forever and keep opening sessions. *)
module Gv = Gmap.Versioned
module Pv = Conflict_sync.Make (Gv) (Conflict_sync.Default_config)
module Pair_gmap = Pair (Gv) (Pv)

let upkeep_tests =
  [
    Alcotest.test_case
      "digest stays exact under overwriting bumps, losses and a reload"
      `Quick (fun () ->
        let bump n keys =
          List.fold_left
            (fun n k -> Pv.local_update n (Gv.Apply (k, Version.Bump)))
            n keys
        in
        let range lo hi = List.init (hi - lo) (fun i -> lo + i) in
        let lose_wave (a, b) = (fst (Pv.tick a), fst (Pv.tick b)) in
        let a, b = Pair_gmap.make () in
        let a = bump a (range 0 30) and b = bump b (range 20 50) in
        let (a, b), _, _ = Pair_gmap.converge (a, b) in
        (* Two waves of overlapping bumps lost on the link: only a
           digest-triggered session can repair them. *)
        let a, b = lose_wave (bump a (range 0 12), bump b (range 8 20)) in
        let a, b = lose_wave (bump a [ 3; 9; 60 ], bump b [ 3; 10; 61 ]) in
        check "diverged" false (Gv.equal (Pv.state a) (Pv.state b));
        let (a, b), rounds, _ = Pair_gmap.converge (a, b) in
        check
          (Printf.sprintf "session repaired the lost waves in %d rounds" rounds)
          true
          (rounds >= 2 && rounds <= 10);
        (* Replica 1 restarts from its own state: its digest is now
           computed from scratch, replica 0's is still the running one. *)
        let b = Pv.load (Pv.init ~id:1 ~neighbors:[ 0 ] ~total:2) (Pv.state b) in
        let nodes = [| a; b |] in
        for _ = 1 to 3 do
          ignore (Pair_gmap.round nodes)
        done;
        check "re-converged" true
          (Gv.equal (Pv.state nodes.(0)) (Pv.state nodes.(1)));
        for r = 1 to 20 do
          check_int
            (Printf.sprintf "quiet round %d: one digest each way" r)
            2 (Pair_gmap.round nodes)
        done);
  ]

(* ------------------------------------------------------------------ *)
(* Sessions: IBLT path, Bloom escalation, residue                      *)
(* ------------------------------------------------------------------ *)

let session_tests =
  [
    Alcotest.test_case "big one-shot divergence escalates and converges"
      `Quick (fun () ->
        (* ~600 disjoint irreducibles: far past escalate_cells=256 worth
           of decodable difference, so the default config must take the
           Bloom road (and clean up any false-positive residue with a
           follow-up session). *)
        let a, b = Pair_default.make () in
        let a = add_range P.local_update a 0 300 in
        let b = add_range P.local_update b 10_000 10_300 in
        let a = fst (P.tick a) and b = fst (P.tick b) in
        let (a, b), _, _ = Pair_default.converge (a, b) in
        check_int "union of 600" 600 (Si.weight (P.state a));
        check "equal" true (Si.equal (P.state a) (P.state b)));
    Alcotest.test_case "aggressive config forces the Bloom round" `Quick
      (fun () ->
        (* escalate_cells=4 cannot decode a 120-element difference, so
           every repair here goes through BloomReq/BloomResp; fpr=0.05
           makes false-positive residue likely, which the *next* quiet
           mismatch resolves via a fresh (tiny, decodable) session. *)
        let a, b = Pair_aggr.make () in
        let a = add_range Pa.local_update a 0 60 in
        let b = add_range Pa.local_update b 1_000 1_060 in
        let a = fst (Pa.tick a) and b = fst (Pa.tick b) in
        let (a, b), _, _ = Pair_aggr.converge ~limit:48 (a, b) in
        check_int "union of 120" 120 (Si.weight (Pa.state a));
        check "equal" true (Si.equal (Pa.state a) (Pa.state b)));
    Alcotest.test_case "Bloom FP residue is repaired while traffic flows"
      `Quick (fun () ->
        (* The quiet-link trigger's blind spot: a Bloom-escalated
           session leaves false-positive residue (fpr=0.05 over a
           60-element difference makes a collision near-certain), and
           from the next round on the workload keeps delta traffic
           flowing — so the link is never quiet again, the mismatch
           streak is cleared every round, and BP delta groups never
           re-carry old elements.  Only the post-escalation mark can
           repair the residue: having just run a lossy Bloom round, one
           digest mismatch must force a follow-up session immediately.

           Round 0 (quiet): mismatch → session → IBLT gives up at 4
           cells → Bloom round → residue; everything cascades within
           the round.  Rounds 1..: one fresh op per replica per round,
           delivered losslessly, so at each round end the states are
           equal iff the residue is gone. *)
        let a, b = Pair_aggr.make () in
        let a = add_range Pa.local_update a 0 30 in
        let b = add_range Pa.local_update b 1_000 1_030 in
        (* burn the δ-buffers: the only repair path is a session *)
        let a = fst (Pa.tick a) and b = fst (Pa.tick b) in
        let nodes = [| a; b |] in
        let equal () = Si.equal (Pa.state nodes.(0)) (Pa.state nodes.(1)) in
        let next = ref 2_000_000 in
        let round ~with_ops =
          if with_ops then begin
            Array.iteri
              (fun i n -> nodes.(i) <- Pa.local_update n (!next + i))
              nodes;
            next := !next + 2
          end;
          ignore (Pair_aggr.round nodes)
        in
        round ~with_ops:false;
        check "Bloom round left false-positive residue" false (equal ());
        let converged_at = ref None in
        for r = 1 to 24 do
          round ~with_ops:true;
          if !converged_at = None && equal () then converged_at := Some r
        done;
        match !converged_at with
        | None ->
            Alcotest.fail
              "false-positive residue was never repaired under traffic"
        | Some r ->
            check
              (Printf.sprintf "follow-up session repaired at round %d" r)
              true (r <= 4));
    Alcotest.test_case "session cost scales with the difference, not state"
      `Quick (fun () ->
        (* The headline claim at unit scale: same 2000-element base,
           small vs large divergence — message traffic for the small
           repair must be well under the large one. *)
        let repair gap =
          let a, b = Pair_default.make () in
          let a = add_range P.local_update a 0 2_000 in
          let b = add_range P.local_update b 0 2_000 in
          let (a, b), _, _ = Pair_default.converge (a, b) in
          let a = add_range P.local_update a 50_000 (50_000 + gap) in
          let a = fst (P.tick a) and b = fst (P.tick b) in
          let (a, b), _, delivered = Pair_default.converge (a, b) in
          check "equal" true (Si.equal (P.state a) (P.state b));
          delivered
        in
        let small = repair 4 and large = repair 400 in
        check
          (Printf.sprintf "small repair (%d msgs) < large repair (%d msgs)"
             small large)
          true (small < large));
  ]

(* ------------------------------------------------------------------ *)
(* Fault matrix via the runner                                         *)
(* ------------------------------------------------------------------ *)

module R = Runner.Make (P)

let go ?(quiesce_limit = 64) ~faults ~topology ~rounds () =
  R.run ~faults ~quiesce_limit ~equal:Si.equal ~topology ~rounds
    ~ops:(fun ~round ~node _ ->
      Workload.gset ~nodes:(Topology.size topology) ~round ~node ())
    ()

let converges_to ?quiesce_limit ~faults ~topology ~rounds ~expect_weight name =
  let res = go ?quiesce_limit ~faults ~topology ~rounds () in
  check (name ^ ": converged") true res.R.converged;
  check_int (name ^ ": final weight") expect_weight (Si.weight res.R.finals.(0))

let fault_tests =
  let mesh = Topology.partial_mesh 8 in
  [
    Alcotest.test_case "declares full fault tolerance" `Quick (fun () ->
        let open Crdt_proto.Protocol_intf in
        let c = P.capabilities in
        check "all four classes" true
          (c.tolerates_drop && c.tolerates_partition && c.tolerates_delay
         && c.tolerates_crash));
    Alcotest.test_case "converges after crash-restart" `Quick (fun () ->
        let faults =
          {
            Fault.none with
            Fault.crashes =
              [ Fault.crash ~victim:3 ~crash_round:2 ~recover_round:6 ];
          }
        in
        converges_to ~faults ~topology:mesh ~rounds:10
          ~expect_weight:((8 * 10) - 4) "crash");
    Alcotest.test_case "converges after partition-heal" `Quick (fun () ->
        let faults =
          {
            Fault.none with
            Fault.partitions =
              [ Fault.partition ~from_round:2 ~heal_round:6 [ [ 0; 1; 2 ] ] ];
          }
        in
        converges_to ~faults ~topology:mesh ~rounds:10 ~expect_weight:(8 * 10)
          "partition");
    Alcotest.test_case "converges through 20% loss" `Quick (fun () ->
        let faults = { Fault.none with Fault.drop = 0.2; seed = 7 } in
        converges_to ~faults ~topology:mesh ~rounds:8 ~expect_weight:(8 * 8)
          "loss");
    Alcotest.test_case "converges under per-link delay" `Quick (fun () ->
        let faults =
          {
            Fault.none with
            Fault.delays =
              [
                Fault.delay ~src:0 ~dst:1 ~hold:2;
                Fault.delay ~src:4 ~dst:2 ~hold:3;
              ];
          }
        in
        converges_to ~faults ~topology:(Topology.full_mesh 6) ~rounds:8
          ~expect_weight:(6 * 8) "delay");
    Alcotest.test_case "survives the combined storm" `Quick (fun () ->
        let faults =
          {
            Fault.drop = 0.15;
            duplicate = 0.2;
            shuffle = true;
            seed = 21;
            partitions =
              [ Fault.partition ~from_round:1 ~heal_round:4 [ [ 0; 1 ] ] ];
            delays = [ Fault.delay ~src:2 ~dst:3 ~hold:2 ];
            crashes =
              [ Fault.crash ~victim:5 ~crash_round:3 ~recover_round:7 ];
          }
        in
        converges_to ~faults ~topology:mesh ~rounds:12
          ~expect_weight:((8 * 12) - 4) "storm");
    Alcotest.test_case "sync_rounds and digest_bytes are accounted" `Quick
      (fun () ->
        (* A crash forces a reconciliation session after recovery, so
           the run must record control rounds and non-zero digest bytes
           in the new counters. *)
        let faults =
          {
            Fault.none with
            Fault.crashes =
              [ Fault.crash ~victim:3 ~crash_round:2 ~recover_round:6 ];
          }
        in
        let res = go ~faults ~topology:mesh ~rounds:10 () in
        let s = R.full_summary res in
        check "sync rounds counted" true (s.Metrics.totals.sync_rounds > 0);
        check "digest bytes counted" true (s.Metrics.totals.digest_bytes > 0));
  ]

(* ------------------------------------------------------------------ *)
(* Durability law                                                      *)
(* ------------------------------------------------------------------ *)

let law_tests =
  [
    Alcotest.test_case "state survives crash + recover" `Quick (fun () ->
        let n = P.init ~id:0 ~neighbors:[ 1; 2 ] ~total:3 in
        let n = List.fold_left P.local_update n [ 7; 11; 13 ] in
        let before = P.state n in
        let crashed = P.crash n in
        check "durable through crash" true (Si.equal before (P.state crashed));
        check "durable through recover" true
          (Si.equal before (P.state (P.recover crashed))));
    Alcotest.test_case "recover initiates resync with every neighbor" `Quick
      (fun () ->
        (* After recover, the node must not wait for digest detection:
           the first tick opens a session with each neighbor (2 extra
           non-digest messages here). *)
        let n = P.init ~id:0 ~neighbors:[ 1; 2 ] ~total:3 in
        let n = P.recover (P.crash n) in
        let _, msgs = P.tick n in
        (* 2 digests + 2 sync requests. *)
        check_int "digests plus a SyncReq per neighbor" 4 (List.length msgs));
  ]

let () =
  Alcotest.run "conflict_sync"
    [
      ("detection", detection_tests);
      ("digest upkeep", upkeep_tests);
      ("sessions", session_tests);
      ("fault matrix", fault_tests);
      ("durability", law_tests);
    ]
