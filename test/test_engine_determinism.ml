(* The parallel engine's contract: for a fixed fault seed, any [domains]
   setting produces results bit-identical to the sequential engine —
   same finals, same convergence verdict, same per-round metrics —
   including under duplicate / drop / shuffle plans and the structural
   adversity layer (partitions, per-link delay, crash–restart), and
   under exact byte accounting, which sizes every delivered message on
   the worker domains.  Plans are gated on each protocol's declared
   capabilities, mirroring what Runner.run enforces.  Also unit-covers
   the engine's substrate (Pool, Dynbuf). *)

open Crdt_core
open Crdt_sim
module Workload = Crdt_engine.Workload
module Pool = Crdt_engine.Pool
module Dynbuf = Crdt_engine.Dynbuf

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

module Si = Gset.Of_int

module Check (P : Crdt_proto.Protocol_intf.PROTOCOL
                with type crdt = Si.t
                 and type op = int) =
struct
  module R = Runner.Make (P)

  let go ?bytes ~faults ~domains ~topology ~rounds () =
    R.run ~faults ~domains ?bytes ~equal:Si.equal ~topology ~rounds
      ~ops:(fun ~round ~node _ ->
        Workload.gset ~nodes:(Topology.size topology) ~round ~node ())
      ()

  let same_result (a : R.result) (b : R.result) =
    a.R.converged = b.R.converged
    && Array.for_all2 Si.equal a.R.finals b.R.finals
    && a.R.rounds = b.R.rounds
    && a.R.quiesce_rounds = b.R.quiesce_rounds

  (* Compare sequential vs domains = 2 and 4 over several fault plans,
     keeping only those the protocol declares tolerance for.  The plain
     and the fullest plan also run under exact byte accounting. *)
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
    let case plan_name faults ~bytes label =
      Alcotest.test_case
        (Printf.sprintf "%s, %s%s: domains 2/4 ≡ sequential" name plan_name
           label)
        `Quick
        (fun () ->
          let seq = go ~bytes ~faults ~domains:1 ~topology ~rounds () in
          if bytes = Metrics.Exact then
            check "wire bytes counted" true
              (Array.exists
                 (fun (r : Metrics.round) -> r.wire_bytes > 0)
                 seq.R.rounds);
          List.iter
            (fun domains ->
              let par = go ~bytes ~faults ~domains ~topology ~rounds () in
              check
                (Printf.sprintf "bit-identical at %d domains" domains)
                true (same_result seq par))
            [ 2; 4 ])
    in
    List.map
      (fun (plan_name, faults) ->
        case plan_name faults ~bytes:Metrics.Estimate "")
      plans
    @ List.filter_map
        (fun (plan_name, faults) ->
          if List.mem plan_name [ "no faults"; "partition+delay+crash+shuffle" ]
          then Some (case plan_name faults ~bytes:Metrics.Exact ", exact bytes")
          else None)
        plans
end

module C_bprr =
  Check (Crdt_proto.Delta_sync.Make (Si) (Crdt_proto.Delta_sync.Bp_rr_config))
module C_state = Check (Crdt_proto.State_sync.Make (Si))
module C_sbgc =
  Check (Crdt_proto.Scuttlebutt.Make (Si) (Crdt_proto.Scuttlebutt.Gc_config))
module C_merkle = Check (Crdt_proto.Merkle_sync.Make (Si))

(* More domains than nodes: high shards own empty ranges. *)
let oversharded =
  Alcotest.test_case "more domains than nodes" `Quick (fun () ->
      let topology = Topology.ring 3 in
      let seq =
        C_bprr.go ~faults:C_bprr.R.no_faults ~domains:1 ~topology ~rounds:4 ()
      in
      let par =
        C_bprr.go ~faults:C_bprr.R.no_faults ~domains:6 ~topology ~rounds:4 ()
      in
      check "identical" true (C_bprr.same_result seq par))

let seeded_faults_determinism =
  Alcotest.test_case "same seed twice ⇒ same faulty parallel run" `Quick
    (fun () ->
      let topology = Topology.partial_mesh 8 in
      let faults =
        { C_bprr.R.no_faults with duplicate = 0.5; shuffle = true; seed = 99 }
      in
      let a = C_bprr.go ~faults ~domains:3 ~topology ~rounds:5 () in
      let b = C_bprr.go ~faults ~domains:3 ~topology ~rounds:5 () in
      check "identical" true (C_bprr.same_result a b))

let ops_applied_counted =
  Alcotest.test_case "ops_applied counts the workload ops per round" `Quick
    (fun () ->
      let topology = Topology.ring 5 in
      let res =
        C_bprr.go ~faults:C_bprr.R.no_faults ~domains:2 ~topology ~rounds:3 ()
      in
      Array.iter
        (fun (r : Metrics.round) -> check_int "one op per node" 5 r.ops_applied)
        res.C_bprr.R.rounds;
      Array.iter
        (fun (r : Metrics.round) -> check_int "quiesce applies none" 0 r.ops_applied)
        res.C_bprr.R.quiesce_rounds;
      check_int "summary total" 15
        (C_bprr.R.summary res).Metrics.totals.ops_applied)

(* A full mesh of 7 over 5 rounds: every node sends to every other, so
   each wave's inboxes fill from every shard.  Finals, convergence and
   every per-round record must match at pool widths 1, 2 and 4. *)
let full_mesh =
  Alcotest.test_case "n=7, 5 rounds: widths 1/2/4 bit-identical" `Quick
    (fun () ->
      let topology = Topology.full_mesh 7 in
      let run domains =
        C_bprr.go ~faults:C_bprr.R.no_faults ~domains ~topology ~rounds:5 ()
      in
      let seq = run 1 in
      check "width 1 converged" true seq.C_bprr.R.converged;
      List.iter
        (fun domains ->
          check
            (Printf.sprintf "identical at width %d" domains)
            true
            (C_bprr.same_result seq (run domains)))
        [ 2; 4 ])

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
      ("full-mesh", [ full_mesh ]);
      ("pool", pool_tests);
      ("dynbuf", dynbuf_tests);
    ]
