(* The parallel engine's contract: for a fixed fault seed, any [domains]
   setting produces results bit-identical to the sequential engine —
   same finals, same convergence verdict, same per-round metrics —
   including under duplicate / drop / shuffle plans and the structural
   adversity layer (partitions, per-link delay, crash–restart).  Plans
   are gated on each protocol's declared capabilities, mirroring what
   Runner.run enforces.  Also unit-covers the engine's substrate (Pool,
   Dynbuf). *)

open Crdt_core
open Crdt_sim
module Workload = Crdt_engine.Workload
module Pool = Crdt_engine.Shard.Pool
module Dynbuf = Crdt_engine.Dynbuf

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

module Si = Gset.Of_int

module Check (P : Crdt_proto.Protocol_intf.PROTOCOL
                with type crdt = Si.t
                 and type op = int) =
struct
  module R = Runner.Make (P)

  let go ~faults ~domains ~topology ~rounds =
    R.run ~faults ~domains ~equal:Si.equal ~topology ~rounds
      ~ops:(fun ~round ~node _ ->
        Workload.gset ~nodes:(Topology.size topology) ~round ~node ())
      ()

  let same_result (a : R.result) (b : R.result) =
    a.R.converged = b.R.converged
    && Array.for_all2 Si.equal a.R.finals b.R.finals
    && a.R.rounds = b.R.rounds
    && a.R.quiesce_rounds = b.R.quiesce_rounds

  (* Compare sequential vs domains = 2 and 4 over several fault plans,
     keeping only those the protocol declares tolerance for. *)
  let cases name topology rounds =
    let n = Topology.size topology in
    let plans =
      [
        ("no faults", R.no_faults);
        ("duplicate", { R.no_faults with duplicate = 0.4; seed = 11 });
        ("shuffle", { R.no_faults with shuffle = true; seed = 12 });
        ("drop", { R.no_faults with drop = 0.3; seed = 13 });
        ( "duplicate+drop+shuffle",
          { R.no_faults with duplicate = 0.3; drop = 0.2; shuffle = true;
            seed = 14 } );
        ( "partition",
          { R.no_faults with
            partitions = [ Fault.partition ~from_round:1 ~heal_round:3 [ [ 0; 1 ] ] ];
          } );
        ( "delay",
          { R.no_faults with
            delays = [ Fault.delay ~src:0 ~dst:1 ~hold:2 ];
          } );
        ( "crash",
          { R.no_faults with
            crashes = [ Fault.crash ~victim:(n - 1) ~crash_round:1 ~recover_round:3 ];
          } );
        ( "partition+delay+crash+shuffle",
          { R.no_faults with
            shuffle = true;
            seed = 15;
            partitions = [ Fault.partition ~from_round:0 ~heal_round:2 [ [ 0 ] ] ];
            delays = [ Fault.delay ~src:1 ~dst:0 ~hold:1 ];
            crashes = [ Fault.crash ~victim:2 ~crash_round:2 ~recover_round:3 ];
          } );
      ]
      |> List.filter (fun (_, plan) ->
             Fault.supported ~caps:P.capabilities plan)
    in
    List.map
      (fun (plan_name, faults) ->
        Alcotest.test_case
          (Printf.sprintf "%s, %s: domains 2/4 ≡ sequential" name plan_name)
          `Quick
          (fun () ->
            let seq = go ~faults ~domains:1 ~topology ~rounds in
            List.iter
              (fun domains ->
                let par = go ~faults ~domains ~topology ~rounds in
                check
                  (Printf.sprintf "bit-identical at %d domains" domains)
                  true (same_result seq par))
              [ 2; 4 ]))
      plans
end

module C_bprr =
  Check (Crdt_proto.Delta_sync.Make (Si) (Crdt_proto.Delta_sync.Bp_rr_config))
module C_state = Check (Crdt_proto.State_sync.Make (Si))
module C_sbgc =
  Check (Crdt_proto.Scuttlebutt.Make (Si) (Crdt_proto.Scuttlebutt.Gc_config))
module C_merkle =
  Check (Crdt_proto.Merkle_sync.Make (Si) (Crdt_proto.Merkle_sync.Default_config))

(* More domains than nodes: high shards own empty ranges. *)
let oversharded =
  Alcotest.test_case "more domains than nodes" `Quick (fun () ->
      let topology = Topology.ring 3 in
      let seq = C_bprr.go ~faults:C_bprr.R.no_faults ~domains:1 ~topology ~rounds:4 in
      let par = C_bprr.go ~faults:C_bprr.R.no_faults ~domains:6 ~topology ~rounds:4 in
      check "identical" true (C_bprr.same_result seq par))

let seeded_faults_determinism =
  Alcotest.test_case "same seed twice ⇒ same faulty parallel run" `Quick
    (fun () ->
      let topology = Topology.partial_mesh 8 in
      let faults =
        { C_bprr.R.no_faults with duplicate = 0.5; shuffle = true; seed = 99 }
      in
      let a = C_bprr.go ~faults ~domains:3 ~topology ~rounds:5 in
      let b = C_bprr.go ~faults ~domains:3 ~topology ~rounds:5 in
      check "identical" true (C_bprr.same_result a b))

let ops_applied_counted =
  Alcotest.test_case "ops_applied counts the workload ops per round" `Quick
    (fun () ->
      let topology = Topology.ring 5 in
      let res =
        C_bprr.go ~faults:C_bprr.R.no_faults ~domains:2 ~topology ~rounds:3
      in
      Array.iter
        (fun (r : Metrics.round) -> check_int "one op per node" 5 r.ops_applied)
        res.C_bprr.R.rounds;
      Array.iter
        (fun (r : Metrics.round) -> check_int "quiesce applies none" 0 r.ops_applied)
        res.C_bprr.R.quiesce_rounds;
      check_int "summary total" 15
        (C_bprr.R.summary res).Metrics.totals.ops_applied)

(* -- Shard.Make driven directly ----------------------------------------- *)

(* The scheduler under the simulator's skin: tick / route / deliver_wave
   / sync_round on a full mesh at pool widths 1, 2 and 4, with no
   Runner on top.  Finals and the folded counters must be bit-identical
   at every width — the same contract the Runner-level cases check, but
   pinned at the layer serve and future transports consume. *)
module Shard_direct = struct
  module P = Crdt_proto.Delta_sync.Make (Si) (Crdt_proto.Delta_sync.Bp_rr_config)
  module Sh = Crdt_engine.Shard.Make (P)

  let run ~domains ~n ~rounds =
    Pool.with_pool domains @@ fun pool ->
    let neighbors i = List.filter (fun j -> j <> i) (List.init n Fun.id) in
    let sh = Sh.create ~pool ~n ~neighbors () in
    for round = 0 to rounds - 1 do
      Array.iteri
        (fun i drv ->
          ignore (Sh.D.apply drv (Workload.gset ~nodes:n ~round ~node:i ())))
        (Sh.drivers sh);
      Sh.sync_round sh ~round
    done;
    Sh.snapshot_memory sh;
    let finals = Array.init n (Sh.state sh) in
    let c = Sh.total_counters sh in
    (finals, c, Sh.all_equal ~equal:Si.equal sh)

  let same_counters (a : Crdt_engine.Trace.counters)
      (b : Crdt_engine.Trace.counters) =
    a.sent = b.sent && a.delivered = b.delivered && a.messages = b.messages
    && a.payload_bytes = b.payload_bytes
    && a.metadata_bytes = b.metadata_bytes
    && a.wire_bytes = b.wire_bytes
    && a.ops_applied = b.ops_applied
    && a.memory_weight = b.memory_weight
    && a.memory_bytes = b.memory_bytes

  let equivalence =
    Alcotest.test_case "tick/route/deliver: widths 1/2/4 bit-identical"
      `Quick (fun () ->
        let n = 7 and rounds = 5 in
        let f1, c1, conv1 = run ~domains:1 ~n ~rounds in
        check "width 1 converged" true conv1;
        List.iter
          (fun domains ->
            let fd, cd, convd = run ~domains ~n ~rounds in
            check
              (Printf.sprintf "width %d converged" domains)
              true convd;
            check
              (Printf.sprintf "finals identical at width %d" domains)
              true
              (Array.for_all2 Si.equal f1 fd);
            check
              (Printf.sprintf "counters identical at width %d" domains)
              true (same_counters c1 cd))
          [ 2; 4 ])

  (* One explicit wave walked by hand: tick fills the producing shards'
     outboxes, route drains them into destination inboxes in shard
     order, deliver_wave empties every inbox.  This pins the phase
     boundaries the composite sync_round hides. *)
  let phases =
    Alcotest.test_case "tick -> route -> deliver_wave phase contract" `Quick
      (fun () ->
        Pool.with_pool 2 @@ fun pool ->
        let n = 4 in
        let neighbors i = List.filter (fun j -> j <> i) (List.init n Fun.id) in
        let sh = Sh.create ~pool ~n ~neighbors () in
        Array.iteri
          (fun i drv ->
            ignore (Sh.D.apply drv (Workload.gset ~nodes:n ~round:0 ~node:i ())))
          (Sh.drivers sh);
        Sh.tick sh ~round:0;
        let produced = ref 0 in
        for s = 0 to Sh.shards sh - 1 do
          produced := !produced + Dynbuf.length (Sh.outbox sh ~shard:s)
        done;
        check "tick produced messages" true (!produced > 0);
        check "route reports pending" true (Sh.route sh);
        let pending = ref 0 in
        for d = 0 to n - 1 do
          pending := !pending + Dynbuf.length (Sh.inbox sh d)
        done;
        check_int "route moved every message" !produced !pending;
        Sh.deliver_wave sh ~round:0;
        let left = ref 0 in
        for d = 0 to n - 1 do
          left := !left + Dynbuf.length (Sh.inbox sh d)
        done;
        check_int "deliver_wave drained the inboxes" 0 !left)
end

(* -- substrate: Pool ---------------------------------------------------- *)

let pool_tests =
  [
    Alcotest.test_case "size 1 runs inline" `Quick (fun () ->
        Pool.with_pool 1 (fun p ->
            check_int "size" 1 (Pool.size p);
            let hit = ref 0 in
            Pool.run p (fun shard -> hit := !hit + shard + 1);
            check_int "one shard" 1 !hit));
    Alcotest.test_case "all shards run exactly once per job" `Quick (fun () ->
        Pool.with_pool 4 (fun p ->
            let hits = Array.make 4 0 in
            for _ = 1 to 10 do
              Pool.run p (fun shard -> hits.(shard) <- hits.(shard) + 1)
            done;
            Array.iter (fun h -> check_int "10 jobs" 10 h) hits));
    Alcotest.test_case "sharded partial sums add up" `Quick (fun () ->
        Pool.with_pool 3 (fun p ->
            let n = 1000 in
            let partial = Array.make 3 0 in
            Pool.run p (fun s ->
                for i = s * n / 3 to ((s + 1) * n / 3) - 1 do
                  partial.(s) <- partial.(s) + i
                done);
            check_int "sum 0..999" (n * (n - 1) / 2)
              (Array.fold_left ( + ) 0 partial)));
    Alcotest.test_case "worker exception is re-raised at the barrier" `Quick
      (fun () ->
        Pool.with_pool 2 (fun p ->
            check "raised" true
              (try
                 Pool.run p (fun shard ->
                     if shard = 1 then failwith "boom");
                 false
               with Failure _ -> true);
            (* The pool survives a failed job. *)
            let ok = ref false in
            Pool.run p (fun shard -> if shard = 0 then ok := true);
            check "still usable" true !ok));
  ]

(* -- substrate: Dynbuf -------------------------------------------------- *)

let dynbuf_tests =
  [
    Alcotest.test_case "push/get/clear across growth" `Quick (fun () ->
        let b = Dynbuf.create () in
        check "empty" true (Dynbuf.is_empty b);
        for i = 0 to 99 do
          Dynbuf.push b i
        done;
        check_int "length" 100 (Dynbuf.length b);
        for i = 0 to 99 do
          check_int "get" i (Dynbuf.get b i)
        done;
        Dynbuf.clear b;
        check "cleared" true (Dynbuf.is_empty b);
        Dynbuf.push b 7;
        check_int "refill" 7 (Dynbuf.get b 0));
    Alcotest.test_case "get out of bounds raises" `Quick (fun () ->
        let b = Dynbuf.create () in
        Dynbuf.push b 1;
        check "raises" true
          (try
             ignore (Dynbuf.get b 1);
             false
           with Invalid_argument _ -> true));
    Alcotest.test_case "shuffle permutes in place deterministically" `Quick
      (fun () ->
        let fill () =
          let b = Dynbuf.create () in
          for i = 0 to 31 do
            Dynbuf.push b i
          done;
          b
        in
        let a = fill () and b = fill () in
        Dynbuf.shuffle ~rng:(Random.State.make [| 3 |]) a;
        Dynbuf.shuffle ~rng:(Random.State.make [| 3 |]) b;
        let elems buf =
          List.init (Dynbuf.length buf) (Dynbuf.get buf)
        in
        check "same permutation" true (elems a = elems b);
        check "is a permutation" true
          (List.sort Int.compare (elems a) = List.init 32 Fun.id));
  ]

let () =
  Alcotest.run "engine determinism"
    [
      ("delta-bp+rr", C_bprr.cases "bp+rr" (Topology.partial_mesh 9) 6);
      ("state-based", C_state.cases "state" (Topology.tree 7) 4);
      ("scuttlebutt-gc", C_sbgc.cases "sb-gc" (Topology.ring 6) 5);
      ("merkle", C_merkle.cases "merkle" (Topology.ring 5) 4);
      ( "edges",
        [ oversharded; seeded_faults_determinism; ops_applied_counted ] );
      ("shard-direct", [ Shard_direct.equivalence; Shard_direct.phases ]);
      ("pool", pool_tests);
      ("dynbuf", dynbuf_tests);
    ]
