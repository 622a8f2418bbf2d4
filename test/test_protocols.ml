(* Protocol-level tests: the Fig. 4 (BP) and Fig. 5 (RR) scenarios driven
   step by step, a convergence matrix across protocols × CRDTs ×
   topologies, transport-fault tolerance, and the transmission ordering
   the evaluation section reports. *)

open Crdt_core
open Crdt_proto
open Crdt_sim
module Workload = Crdt_engine.Workload

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 0.))

module S = Gset.Of_string
module Classic = Delta_sync.Make (S) (Delta_sync.Classic_config)
module Bp = Delta_sync.Make (S) (Delta_sync.Bp_config)
module Rr = Delta_sync.Make (S) (Delta_sync.Rr_config)
module BpRr = Delta_sync.Make (S) (Delta_sync.Bp_rr_config)

(* Conflict-sync's steady state is BP+RR delta push (plus payload-free
   digests), so it must pass the paper's BP and RR scenarios too. *)
module Cs = Conflict_sync.Make (S) (Conflict_sync.Default_config)

(* -- Fig. 4: back-propagation of δ-groups ------------------------------ *)

(* Replicas A(0) and B(1).  B adds b and synchronizes; A adds a and
   synchronizes back.  Classic sends {a,b} back to B; BP sends only {a}. *)
module Fig4 (P : Protocol_intf.PROTOCOL with type crdt = S.t and type op = string) =
struct
  let sent_back_to_b () =
    let a = P.init ~id:0 ~neighbors:[ 1 ] ~total:2 in
    let b = P.init ~id:1 ~neighbors:[ 0 ] ~total:2 in
    let b = P.local_update b "b" in
    let b, msgs = P.tick b in
    ignore b;
    let to_a = List.assoc 0 msgs in
    let a, _ = P.handle a ~src:1 to_a in
    let a = P.local_update a "a" in
    let _, msgs = P.tick a in
    P.payload_weight (List.assoc 1 msgs)
end

module Fig4_classic = Fig4 (Classic)
module Fig4_bp = Fig4 (Bp)
module Fig4_cs = Fig4 (Cs)

let fig4_tests =
  [
    Alcotest.test_case "classic back-propagates {a,b} (2 elements)" `Quick
      (fun () -> check_int "payload" 2 (Fig4_classic.sent_back_to_b ()));
    Alcotest.test_case "BP sends only {a} (1 element)" `Quick (fun () ->
        check_int "payload" 1 (Fig4_bp.sent_back_to_b ()));
    Alcotest.test_case "conflict-sync sends only {a} (1 element)" `Quick
      (fun () -> check_int "payload" 1 (Fig4_cs.sent_back_to_b ()));
  ]

(* -- Fig. 5: redundant state in received δ-groups ---------------------- *)

(* Diamond A(0)-B(1)-C(2) with C-D(3).  C already knows {b} when A's
   δ-group {a,b} arrives; what C then forwards to D is {a,b} under
   classic but only {a} under RR. *)
module Fig5 (P : Protocol_intf.PROTOCOL with type crdt = S.t and type op = string) =
struct
  let forwarded_to_d () =
    let a = P.init ~id:0 ~neighbors:[ 1; 2 ] ~total:4 in
    let b = P.init ~id:1 ~neighbors:[ 0; 2 ] ~total:4 in
    let c = P.init ~id:2 ~neighbors:[ 0; 1; 3 ] ~total:4 in
    (* •4: B adds b and pushes to A and C. *)
    let b = P.local_update b "b" in
    let _, msgs = P.tick b in
    let a, _ = P.handle a ~src:1 (List.assoc 0 msgs) in
    let c, _ = P.handle c ~src:1 (List.assoc 2 msgs) in
    (* •5: C pushes {b} onward (to D among others); buffer now clear. *)
    let c, _ = P.tick c in
    (* •6: A adds a and pushes the join of its buffer to C. *)
    let a = P.local_update a "a" in
    let _, msgs = P.tick a in
    let c, _ = P.handle c ~src:0 (List.assoc 2 msgs) in
    (* •7: what does C now forward to D? *)
    let _, msgs = P.tick c in
    match List.assoc_opt 3 msgs with
    | None -> 0
    | Some m -> P.payload_weight m
end

module Fig5_classic = Fig5 (Classic)
module Fig5_rr = Fig5 (Rr)
module Fig5_bprr = Fig5 (BpRr)
module Fig5_cs = Fig5 (Cs)

let fig5_tests =
  [
    Alcotest.test_case "classic forwards the redundant {a,b}" `Quick (fun () ->
        check_int "payload" 2 (Fig5_classic.forwarded_to_d ()));
    Alcotest.test_case "RR forwards only {a}" `Quick (fun () ->
        check_int "payload" 1 (Fig5_rr.forwarded_to_d ()));
    Alcotest.test_case "BP+RR forwards only {a}" `Quick (fun () ->
        check_int "payload" 1 (Fig5_bprr.forwarded_to_d ()));
    Alcotest.test_case "conflict-sync forwards only {a}" `Quick (fun () ->
        check_int "payload" 1 (Fig5_cs.forwarded_to_d ()));
  ]

(* -- Convergence matrix ------------------------------------------------- *)

module Si = Gset.Of_int

module Convergence (P : Protocol_intf.PROTOCOL
                      with type crdt = Si.t
                       and type op = int) =
struct
  module R = Runner.Make (P)

  let run topo rounds =
    R.run ~equal:Si.equal ~topology:topo ~rounds
      ~ops:(fun ~round ~node _ ->
        Workload.gset ~nodes:(Topology.size topo) ~round ~node ())
      ()

  let converges_with_expected_elements name topo rounds =
    Alcotest.test_case name `Quick (fun () ->
        let res = run topo rounds in
        check "converged" true res.R.converged;
        let n = Topology.size topo in
        check_int "all elements present" (rounds * n)
          (Si.cardinal res.R.finals.(0)))
end

module C_state = Convergence (State_sync.Make (Si))
module C_classic = Convergence (Delta_sync.Make (Si) (Delta_sync.Classic_config))
module C_bp = Convergence (Delta_sync.Make (Si) (Delta_sync.Bp_config))
module C_rr = Convergence (Delta_sync.Make (Si) (Delta_sync.Rr_config))
module C_bprr = Convergence (Delta_sync.Make (Si) (Delta_sync.Bp_rr_config))
module C_sb = Convergence (Scuttlebutt.Make (Si) (Scuttlebutt.No_gc_config))
module C_sbgc = Convergence (Scuttlebutt.Make (Si) (Scuttlebutt.Gc_config))
module C_op = Convergence (Op_sync.Make (Si))

let convergence_tests =
  let tree = Topology.tree 7
  and mesh = Topology.partial_mesh 8
  and ring = Topology.ring 6
  and line = Topology.line 5 in
  [
    C_state.converges_with_expected_elements "state-based / mesh" mesh 10;
    C_classic.converges_with_expected_elements "classic / mesh" mesh 10;
    C_bp.converges_with_expected_elements "BP / tree" tree 10;
    C_rr.converges_with_expected_elements "RR / ring" ring 10;
    C_bprr.converges_with_expected_elements "BP+RR / mesh" mesh 10;
    C_bprr.converges_with_expected_elements "BP+RR / line" line 10;
    C_sb.converges_with_expected_elements "scuttlebutt / mesh" mesh 10;
    C_sbgc.converges_with_expected_elements "scuttlebutt-GC / tree" tree 10;
    C_op.converges_with_expected_elements "op-based / mesh" mesh 10;
    C_op.converges_with_expected_elements "op-based / line" line 10;
  ]

(* GCounter: every protocol must agree on the same final value. *)
module Counter_conv (P : Protocol_intf.PROTOCOL
                       with type crdt = Gcounter.t
                        and type op = Gcounter.op) =
struct
  module R = Runner.Make (P)

  let final_value topo rounds =
    let res =
      R.run ~equal:Gcounter.equal ~topology:topo ~rounds
        ~ops:(fun ~round ~node _ -> Workload.gcounter ~round ~node ())
        ()
    in
    check "converged" true res.R.converged;
    Gcounter.value res.R.finals.(0)
end

module Cc_state = Counter_conv (State_sync.Make (Gcounter))
module Cc_classic = Counter_conv (Delta_sync.Make (Gcounter) (Delta_sync.Classic_config))
module Cc_bprr = Counter_conv (Delta_sync.Make (Gcounter) (Delta_sync.Bp_rr_config))
module Cc_sb = Counter_conv (Scuttlebutt.Make (Gcounter) (Scuttlebutt.Gc_config))
module Cc_op = Counter_conv (Op_sync.Make (Gcounter))

let counter_agreement =
  [
    Alcotest.test_case "all protocols agree on the counter value" `Quick
      (fun () ->
        let topo = Topology.partial_mesh 6 in
        let expected = 6 * 8 in
        check_int "state" expected (Cc_state.final_value topo 8);
        check_int "classic" expected (Cc_classic.final_value topo 8);
        check_int "bp+rr" expected (Cc_bprr.final_value topo 8);
        check_int "scuttlebutt-gc" expected (Cc_sb.final_value topo 8);
        check_int "op-based" expected (Cc_op.final_value topo 8));
  ]

(* -- Convergence across data types -------------------------------------- *)

module Type_matrix (C : Crdt_core.Lattice_intf.CRDT) = struct
  let case name (ops : round:int -> node:int -> C.t -> C.op list) =
    Alcotest.test_case name `Quick (fun () ->
        let topo = Topology.partial_mesh 6 in
        let go (module P : Protocol_intf.PROTOCOL
                 with type crdt = C.t
                  and type op = C.op) =
          let module R = Runner.Make (P) in
          let res = R.run ~equal:C.equal ~topology:topo ~rounds:8 ~ops () in
          check (name ^ "/" ^ P.protocol_name) true res.R.converged
        in
        go (module State_sync.Make (C));
        go (module Delta_sync.Make (C) (Delta_sync.Classic_config));
        go (module Delta_sync.Make (C) (Delta_sync.Bp_rr_config));
        go (module Scuttlebutt.Make (C) (Scuttlebutt.Gc_config));
        go (module Merkle_sync.Make (C)))
end

module Pn_matrix = Type_matrix (Pncounter)
module Gm_matrix = Type_matrix (Gmap.Versioned)
module Aw_matrix = Type_matrix (Aw_set.Of_int)
module Lw_matrix = Type_matrix (Lww_register)

let type_matrix_tests =
  [
    Pn_matrix.case "PNCounter" (fun ~round ~node:_ _ ->
        if round mod 2 = 0 then [ Pncounter.Inc 2 ] else [ Pncounter.Dec 1 ]);
    Gm_matrix.case "GMap" (fun ~round ~node _ ->
        [ Gmap.Versioned.Apply ((round + node) mod 5, Version.Bump) ]);
    Aw_matrix.case "AW OR-Set" (fun ~round ~node state ->
        let add = Aw_set.Of_int.Add ((round * 17) + node) in
        if node = 1 && round mod 2 = 1 then
          match Aw_set.Of_int.value state with
          | v :: _ -> [ add; Aw_set.Of_int.Remove v ]
          | [] -> [ add ]
        else [ add ]);
    Lw_matrix.case "LWW register" (fun ~round ~node _ ->
        [ Lww_register.Write (Printf.sprintf "%d-%d" round node) ]);
  ]

(* -- Transmission ordering (the Fig. 7 claim, in miniature) ------------- *)

module Volume (P : Protocol_intf.PROTOCOL
                 with type crdt = Si.t
                  and type op = int) =
struct
  module R = Runner.Make (P)

  let payload topo rounds =
    let res =
      R.run ~equal:Si.equal ~topology:topo ~rounds
        ~ops:(fun ~round ~node _ ->
          Workload.gset ~nodes:(Topology.size topo) ~round ~node ())
        ()
    in
    (R.summary res).Metrics.totals.payload
end

module V_state = Volume (State_sync.Make (Si))
module V_classic = Volume (Delta_sync.Make (Si) (Delta_sync.Classic_config))
module V_bp = Volume (Delta_sync.Make (Si) (Delta_sync.Bp_config))
module V_rr = Volume (Delta_sync.Make (Si) (Delta_sync.Rr_config))
module V_bprr = Volume (Delta_sync.Make (Si) (Delta_sync.Bp_rr_config))

let ordering_tests =
  [
    Alcotest.test_case "mesh: BP+RR ≤ RR ≪ classic ≈ state" `Quick (fun () ->
        let topo = Topology.partial_mesh 15 in
        let state = V_state.payload topo 30
        and classic = V_classic.payload topo 30
        and bp = V_bp.payload topo 30
        and rr = V_rr.payload topo 30
        and bprr = V_bprr.payload topo 30 in
        check "bp+rr ≤ rr" true (bprr <= rr);
        check "rr ≪ classic (≥5x)" true (rr * 5 <= classic);
        check "classic ≈ state (within 10%)" true
          (abs (classic - state) * 10 <= state);
        check "bp barely helps in the mesh" true (classic * 9 <= bp * 10));
    Alcotest.test_case "tree: BP alone attains BP+RR's optimum" `Quick
      (fun () ->
        let topo = Topology.tree 15 in
        check_int "bp = bp+rr" (V_bprr.payload topo 30) (V_bp.payload topo 30));
  ]

(* -- Exact optimality on trees ------------------------------------------- *)

(* On an acyclic topology, BP+RR broadcasts every join-irreducible along
   the unique spanning paths: each element crosses each of the n−1 edges
   exactly once, so the full-run payload is exactly elements × edges.
   This is the strongest form of the paper's "BP suffices on trees"
   claim.  Conflict-sync's steady state is the same BP+RR push, and its
   digests carry no payload, so it must hit the same figure. *)
module Opt = Runner.Make (Delta_sync.Make (Si) (Delta_sync.Bp_rr_config))
module Opt_bp = Runner.Make (Delta_sync.Make (Si) (Delta_sync.Bp_config))

let full_payload rounds quiesce =
  let sum arr =
    Array.fold_left (fun acc (r : Metrics.round) -> acc + r.payload) 0 arr
  in
  sum rounds + sum quiesce

module Tree_optimal (P : Protocol_intf.PROTOCOL
                       with type crdt = Si.t
                        and type op = int) =
struct
  module R = Runner.Make (P)

  let case name =
    Alcotest.test_case name `Quick (fun () ->
        List.iter
          (fun (n, rounds) ->
            let topo = Topology.tree n in
            let res =
              R.run ~equal:Si.equal ~topology:topo ~rounds
                ~ops:(fun ~round ~node _ -> Workload.gset ~nodes:n ~round ~node ())
                ()
            in
            check "converged" true res.R.converged;
            check_int
              (Printf.sprintf "n=%d rounds=%d" n rounds)
              (rounds * n * (n - 1))
              (full_payload res.R.rounds res.R.quiesce_rounds))
          [ (7, 10); (15, 6); (3, 20) ])
end

module Tree_bprr = Tree_optimal (Delta_sync.Make (Si) (Delta_sync.Bp_rr_config))
module Tree_cs = Tree_optimal (Conflict_sync.Make (Si) (Conflict_sync.Default_config))

let tree_optimality_tests =
  [
    Tree_bprr.case "BP+RR tree payload = elements × edges, exactly";
    Alcotest.test_case "BP alone reaches the same optimum on trees" `Quick
      (fun () ->
        let n = 15 and rounds = 6 in
        let topo = Topology.tree n in
        let res =
          Opt_bp.run ~equal:Si.equal ~topology:topo ~rounds
            ~ops:(fun ~round ~node _ -> Workload.gset ~nodes:n ~round ~node ())
            ()
        in
        check_int "exact" (rounds * n * (n - 1))
          (full_payload res.Opt_bp.rounds res.Opt_bp.quiesce_rounds));
    Alcotest.test_case "on a line the bound also holds" `Quick (fun () ->
        let n = 6 and rounds = 8 in
        let topo = Topology.line n in
        let res =
          Opt.run ~equal:Si.equal ~topology:topo ~rounds
            ~ops:(fun ~round ~node _ -> Workload.gset ~nodes:n ~round ~node ())
            ()
        in
        check_int "exact" (rounds * n * (n - 1))
          (full_payload res.Opt.rounds res.Opt.quiesce_rounds));
    Tree_cs.case "conflict-sync tree payload = elements × edges, exactly";
  ]

(* -- GCounter as the GMap 100% special case ------------------------------ *)

(* Table I remark: "the GCounter benchmark is a particular case of
   GMap K% in which K = 100" with as many keys as nodes.  With the key
   space pinned to the node count, both workloads update one entry per
   node per round, so delta-based transmission must coincide exactly. *)
module V_gmap = Runner.Make
  (Delta_sync.Make (Gmap.Versioned) (Delta_sync.Bp_rr_config))
module V_gcounter = Runner.Make
  (Delta_sync.Make (Gcounter) (Delta_sync.Bp_rr_config))

let special_case_tests =
  [
    Alcotest.test_case "GCounter transmission = GMap 100% with N keys"
      `Quick (fun () ->
        let n = 8 in
        let topo = Topology.partial_mesh n in
        let gmap =
          V_gmap.run ~equal:Gmap.Versioned.equal ~topology:topo ~rounds:12
            ~ops:(fun ~round ~node state ->
              Workload.gmap ~total_keys:n ~k:100 ~nodes:n ~round ~node state)
            ()
        in
        let gcounter =
          V_gcounter.run ~equal:Gcounter.equal ~topology:topo ~rounds:12
            ~ops:(fun ~round ~node state -> Workload.gcounter ~round ~node state)
            ()
        in
        check_int "identical payload"
          (V_gmap.summary gmap).Metrics.totals.payload
          (V_gcounter.summary gcounter).Metrics.totals.payload);
  ]

(* -- Transport faults --------------------------------------------------- *)

module F_bprr = Runner.Make (Delta_sync.Make (Si) (Delta_sync.Bp_rr_config))
module F_state = Runner.Make (State_sync.Make (Si))
module F_sb = Runner.Make (Scuttlebutt.Make (Si) (Scuttlebutt.Gc_config))
module F_op = Runner.Make (Op_sync.Make (Si))
module F_ack = Runner.Make (Delta_sync.Make (Si) (Delta_sync.Ack_config))

let gset_ops topo ~round ~node _ =
  Workload.gset ~nodes:(Topology.size topo) ~round ~node ()

let fault_tests =
  [
    Alcotest.test_case "BP+RR survives duplication and reordering" `Quick
      (fun () ->
        let topo = Topology.partial_mesh 8 in
        let faults =
          {
            F_bprr.no_faults with
            duplicate = 0.3;
            shuffle = true;
            seed = 11;
          }
        in
        let res =
          F_bprr.run ~faults ~equal:Si.equal ~topology:topo ~rounds:10
            ~ops:(gset_ops topo) ()
        in
        check "converged" true res.F_bprr.converged;
        check_int "elements" 80 (Si.cardinal res.F_bprr.finals.(0)));
    Alcotest.test_case "scuttlebutt survives duplication and reordering"
      `Quick (fun () ->
        let topo = Topology.ring 6 in
        let faults =
          {
            F_sb.no_faults with
            duplicate = 0.3;
            shuffle = true;
            seed = 12;
          }
        in
        let res =
          F_sb.run ~faults ~equal:Si.equal ~topology:topo ~rounds:10
            ~ops:(gset_ops topo) ()
        in
        check "converged" true res.F_sb.converged);
    Alcotest.test_case "op-based survives duplication and reordering" `Quick
      (fun () ->
        let topo = Topology.partial_mesh 6 in
        let faults =
          {
            F_op.no_faults with
            duplicate = 0.25;
            shuffle = true;
            seed = 13;
          }
        in
        let res =
          F_op.run ~faults ~equal:Si.equal ~topology:topo ~rounds:10
            ~ops:(gset_ops topo) ()
        in
        check "converged" true res.F_op.converged;
        check_int "elements" 60 (Si.cardinal res.F_op.finals.(0)));
    Alcotest.test_case "state-based tolerates message loss" `Quick (fun () ->
        let topo = Topology.partial_mesh 6 in
        let faults =
          { F_state.no_faults with drop = 0.3; seed = 14 }
        in
        let res =
          F_state.run ~faults ~equal:Si.equal ~topology:topo ~rounds:10
            ~ops:(gset_ops topo) ()
        in
        check "converged" true res.F_state.converged);
    Alcotest.test_case "scuttlebutt tolerates message loss (pull-based)"
      `Quick (fun () ->
        let topo = Topology.ring 6 in
        let faults =
          { F_sb.no_faults with drop = 0.25; seed = 21 }
        in
        let res =
          F_sb.run ~faults ~equal:Si.equal ~topology:topo ~rounds:10
            ~ops:(gset_ops topo) ()
        in
        check "converged" true res.F_sb.converged);
    Alcotest.test_case "merkle tolerates message loss (digest-driven)"
      `Quick (fun () ->
        let module Fm = Runner.Make (Merkle_sync.Make (Si)) in
        let topo = Topology.ring 6 in
        let faults =
          { Fm.no_faults with drop = 0.25; seed = 22 }
        in
        let res =
          Fm.run ~faults ~equal:Si.equal ~topology:topo ~rounds:10
            ~ops:(gset_ops topo) ()
        in
        check "converged" true res.Fm.converged);
    Alcotest.test_case "ack-mode delta tolerates message loss (footnote)"
      `Quick (fun () ->
        let topo = Topology.partial_mesh 6 in
        let faults =
          { F_ack.no_faults with drop = 0.3; seed = 15 }
        in
        let res =
          F_ack.run ~faults ~equal:Si.equal ~topology:topo ~rounds:10
            ~ops:(gset_ops topo) ()
        in
        check "converged" true res.F_ack.converged;
        check_int "elements" 60 (Si.cardinal res.F_ack.finals.(0)));
  ]

(* -- Memory accounting -------------------------------------------------- *)

(* Fig. 10's fault-free GMap 100% cell at quick scale (15-node partial
   mesh, 30 rounds, 1000 keys): average resident elements over the whole
   run, convergence tail included.  Conflict-sync buffers through the
   same δ-buffer as delta-BP+RR, so the two must report the same figure. *)
module Mem (P : Protocol_intf.PROTOCOL
               with type crdt = Gmap.Versioned.t
                and type op = Gmap.Versioned.op) =
struct
  module R = Runner.Make (P)

  let avg_resident () =
    let nodes = 15 in
    let res =
      R.run ~equal:Gmap.Versioned.equal ~topology:(Topology.partial_mesh nodes)
        ~rounds:30
        ~ops:(fun ~round ~node state ->
          Workload.gmap ~total_keys:1000 ~k:100 ~nodes ~round ~node state)
        ()
    in
    check "converged" true res.R.converged;
    (R.full_summary res).Metrics.avg_memory_weight
end

module Mem_bprr = Mem (Delta_sync.Make (Gmap.Versioned) (Delta_sync.Bp_rr_config))
module Mem_cs = Mem (Conflict_sync.Make (Gmap.Versioned) (Conflict_sync.Default_config))

let memory_tests =
  [
    Alcotest.test_case "state-based stores no metadata (Fig. 10 baseline)"
      `Quick (fun () ->
        let module P = State_sync.Make (Si) in
        let n = P.init ~id:0 ~neighbors:[ 1 ] ~total:2 in
        let n = P.local_update n 42 in
        check_int "memory = crdt only" 1 (P.memory n).weight;
        check_int "no metadata" 0 (P.memory n).metadata_bytes);
    Alcotest.test_case "delta buffers count toward memory until flushed"
      `Quick (fun () ->
        let module P = Delta_sync.Make (Si) (Delta_sync.Bp_rr_config) in
        let n = P.init ~id:0 ~neighbors:[ 1 ] ~total:2 in
        let n = P.local_update n 1 in
        let n = P.local_update n 2 in
        (* state weight 2 + buffered deltas weight 2 *)
        check_int "with buffer" 4 (P.memory n).weight;
        let n, _ = P.tick n in
        check_int "after flush" 2 (P.memory n).weight);
    Alcotest.test_case "conflict-sync and BP+RR: one buffer, one memory figure"
      `Quick (fun () ->
        check_float "Fig. 10 GMap 100% avg resident elements"
          (Mem_bprr.avg_resident ()) (Mem_cs.avg_resident ()));
  ]

let () =
  Alcotest.run "protocols"
    [
      ("Fig. 4 (BP)", fig4_tests);
      ("Fig. 5 (RR)", fig5_tests);
      ("convergence", convergence_tests);
      ("data-type matrix", type_matrix_tests);
      ("cross-protocol agreement", counter_agreement);
      ("transmission ordering", ordering_tests);
      ("exact tree optimality", tree_optimality_tests);
      ("GCounter = GMap 100% (Table I)", special_case_tests);
      ("transport faults", fault_tests);
      ("memory accounting", memory_tests);
    ]
