(* One function per paper artifact (Figs. 1, 7-12 and Tables I-II).
   Each prints the series/rows the paper reports, in the paper's units
   (lattice elements for transmission and memory, bytes for metadata and
   for the Retwis run, measured process CPU for Fig. 1-right and
   Fig. 12). *)

open Crdt_core
open Crdt_sim
module Workload = Crdt_engine.Workload

(* Experiment scale.  Defaults follow the paper where affordable on one
   machine: 15-node topologies, 100 events per replica, 1000 GMap keys,
   Fig. 9 sweeps up to 32 nodes.  The Retwis run defaults to a reduced
   scale (16 nodes / 1000 users / 40 rounds); --paper restores the
   paper's 50 nodes / 10000 users / 100 rounds.  CPU cells (Fig. 1-right,
   Fig. 12) take [cpu_reps] repetitions, each repeating the run until it
   has used [cpu_floor] seconds of process CPU. *)
type scale = {
  name : string;
  nodes : int;
  rounds : int;
  gmap_keys : int;
  metadata_nodes : int list;
  retwis_nodes : int;
  retwis_users : int;
  retwis_rounds : int;
  zipf_coefficients : float list;
  cpu_reps : int;
  cpu_floor : float;
}

let default_scale =
  {
    name = "default";
    nodes = 15;
    rounds = 100;
    gmap_keys = 1000;
    metadata_nodes = [ 8; 16; 24; 32 ];
    retwis_nodes = 16;
    retwis_users = 1000;
    retwis_rounds = 40;
    zipf_coefficients = [ 0.5; 0.75; 1.0; 1.25; 1.5 ];
    cpu_reps = 5;
    cpu_floor = 1.0;
  }

(* A paper-scale Retwis run takes minutes of CPU, so fewer repetitions. *)
let paper_scale =
  { default_scale with name = "paper"; retwis_nodes = 50;
    retwis_users = 10_000; retwis_rounds = 100; cpu_reps = 3 }

let quick_scale =
  {
    default_scale with
    name = "quick";
    nodes = 15;
    rounds = 30;
    metadata_nodes = [ 8; 16 ];
    retwis_nodes = 8;
    retwis_users = 200;
    retwis_rounds = 15;
    cpu_reps = 3;
    cpu_floor = 0.05;
  }

(* Harness instances per benchmark CRDT. *)
module H_gset = Harness.Make (Gset.Of_int)
module H_gcounter = Harness.Make (Gcounter)
module H_gmap = Harness.Make (Gmap.Versioned)

let gset_ops nodes ~round ~node state =
  Workload.gset ~nodes ~round ~node state

let gcounter_ops ~round ~node state = Workload.gcounter ~round ~node state

let gmap_ops ~total_keys ~k ~nodes ~round ~node state =
  Workload.gmap ~total_keys ~k ~nodes ~round ~node state

let check_converged outcomes =
  List.iter
    (fun (o : Harness.outcome) ->
      if not o.converged then
        failwith (Printf.sprintf "%s failed to converge" o.protocol))
    outcomes

(* Transmission = payload + metadata, both in element units (an element
   is a set element / map entry; a metadata unit is a version-pair
   component, vector entry or sequence number).  Counting metadata here
   is what reproduces the paper's Fig. 7 story: the vector-based
   protocols ship optimal per-update deltas yet still lose — massively on
   GCounter — because their identification metadata does not compress
   under joins.  Fig. 9 then isolates that metadata cost explicitly. *)
let transmission (o : Harness.outcome) =
  Metrics.total_transmission o.summary

let ratio_row baseline (o : Harness.outcome) =
  [
    o.protocol;
    string_of_int (transmission o);
    Report.f2
      (Metrics.ratio ~baseline:(transmission baseline) (transmission o));
  ]

(* ----------------------------------------------------------- CPU cells *)

(* Process CPU per run of each named deterministic run (which returns
   whether it converged) over [scale.cpu_reps] repetitions.  The runs
   are interleaved inside each repetition, so a slow phase of the host
   hits all of them alike; each repetition repeats its run back to back
   until it has used [scale.cpu_floor] seconds.  A run that does not
   converge, or a cell that is not finite and positive, fails the
   bench. *)
let measure_cpu scale runs =
  let samples = Array.make (List.length runs) [] in
  for _ = 1 to scale.cpu_reps do
    List.iteri
      (fun i (name, run) ->
        let checked () =
          if not (run ()) then failwith (name ^ " failed to converge")
        in
        let per_run = Report.cpu_per_run ~floor:scale.cpu_floor checked in
        samples.(i) <- per_run :: samples.(i))
      runs
  done;
  List.map
    (fun xs ->
      let c = Report.spread xs in
      if not (Float.is_finite c.Report.median && c.median > 0.) then
        failwith "CPU cell is not finite and positive";
      c)
    (Array.to_list samples)

(* A ratio of two cells is resolved only if neither spreads by more than
   this (IQR/median); otherwise it is inside the noise. *)
let max_spread = 0.15

let resolved cells =
  List.for_all (fun c -> Report.iqr_over_median c <= max_spread) cells

let cpu_cells (c : Report.spread) =
  [
    Printf.sprintf "%.4f s" c.median;
    Report.pct (Report.iqr_over_median c);
    string_of_int c.reps;
  ]

let ratio_cell ~resolved r =
  if resolved then Report.f2 r else Report.f2 r ^ " (unresolved)"

let cell_json (c : Report.spread) =
  Printf.sprintf {|{"median_s": %.6f, "iqr_over_median": %.4f, "reps": %d}|}
    c.median (Report.iqr_over_median c) c.reps

let json_rows rows = "[\n    " ^ String.concat ",\n    " rows ^ "\n  ]"

(* [sections] are (id, JSON object) pairs, one per CPU experiment run. *)
let write_cpu_json path scale sections =
  let oc = open_out path in
  Printf.fprintf oc
    "{\n  \"bench\": \"cpu_overhead\",\n  \"schema\": 1,\n  \"host\": %s,\n\
    \  \"scale\": %S,\n  \"cpu_floor_s\": %g,\n%s\n}\n"
    (Report.host_json ()) scale.name scale.cpu_floor
    (String.concat ",\n"
       (List.map (fun (id, json) -> Printf.sprintf "  %S: %s" id json) sections));
  close_out oc;
  Report.note "wrote %s" path

(* ---------------------------------------------------------------- fig1 *)

(* Fig. 1: 15-node partial mesh replicating an always-growing GSet.
   Left: elements sent over time (cumulative, sampled); right: measured
   CPU ratio w.r.t. state-based.  Returns the right plot as JSON. *)
let fig1 scale =
  Report.section "Fig 1" "delta-based ≈ state-based on a mesh (GSet)";
  let topo = Topology.partial_mesh scale.nodes in
  let ops = gset_ops scale.nodes in
  (* Per-round series need raw runner access. *)
  let module Protocols = Crdt_engine.Registry.For (Gset.Of_int) in
  let module Ps = (val Protocols.find "state-based") in
  let module Pc = (val Protocols.find "delta-classic") in
  let module Pb = (val Protocols.find "delta-bp+rr") in
  let module Rs = Runner.Make (Ps) in
  let module Rc = Runner.Make (Pc) in
  let module Rb = Runner.Make (Pb) in
  let series (rounds : Metrics.round array) =
    let cum = ref 0 in
    Array.map
      (fun (r : Metrics.round) ->
        cum := !cum + r.payload;
        !cum)
      rounds
  in
  let run_state () =
    Rs.run ~equal:Gset.Of_int.equal ~topology:topo ~rounds:scale.rounds ~ops ()
  in
  let run_classic () =
    Rc.run ~equal:Gset.Of_int.equal ~topology:topo ~rounds:scale.rounds ~ops ()
  in
  let run_bprr () =
    Rb.run ~equal:Gset.Of_int.equal ~topology:topo ~rounds:scale.rounds ~ops ()
  in
  let cs = series (run_state ()).Rs.rounds
  and cc = series (run_classic ()).Rc.rounds
  and cb = series (run_bprr ()).Rb.rounds in
  let sample = max 1 (scale.rounds / 10) in
  let rows = ref [] in
  Array.iteri
    (fun i _ ->
      if (i + 1) mod sample = 0 then
        rows :=
          [
            string_of_int (i + 1);
            string_of_int cs.(i);
            string_of_int cc.(i);
            string_of_int cb.(i);
          ]
          :: !rows)
    cs;
  Report.note "cumulative set elements transmitted (left plot):";
  Report.table
    ~header:[ "round"; "state-based"; "delta-classic"; "delta-bp+rr" ]
    (List.rev !rows);
  let runs =
    [
      ("state-based", fun () -> (run_state ()).Rs.converged);
      ("delta-classic", fun () -> (run_classic ()).Rc.converged);
      ("delta-bp+rr", fun () -> (run_bprr ()).Rb.converged);
    ]
  in
  let names = List.map fst runs in
  let cells = measure_cpu scale runs in
  let state = List.hd cells in
  let ratio c = c.Report.median /. state.Report.median in
  Report.note "";
  Report.note
    "process CPU per run w.r.t. state-based (right plot), %d repetitions \
     of >= %.2f s:"
    scale.cpu_reps scale.cpu_floor;
  Report.table
    ~header:[ "protocol"; "CPU/run"; "IQR/median"; "reps"; "ratio vs state" ]
    (List.map2
       (fun name c ->
         (name :: cpu_cells c)
         @ [ ratio_cell ~resolved:(resolved [ state; c ]) (ratio c) ])
       names cells);
  Printf.sprintf {|{"nodes": %d, "rounds": %d, "cells": %s}|} scale.nodes
    scale.rounds
    (json_rows
       (List.map2
          (fun name c ->
            Printf.sprintf
              {|{"protocol": %S, "cpu": %s, "ratio_vs_state_based": %.4f, "resolved": %b}|}
              name (cell_json c) (ratio c) (resolved [ state; c ]))
          names cells))

(* ---------------------------------------------------------------- tab1 *)

let table1 () =
  Report.section "Tab I" "micro-benchmark description";
  Report.table
    ~header:[ "type"; "periodic event"; "measurement" ]
    [
      [ "GCounter"; "single increment"; "number of entries in the map" ];
      [ "GSet"; "addition of unique element"; "number of elements in the set" ];
      [
        "GMap K%";
        "change the value of K/N% keys";
        "number of entries in the map";
      ];
    ]

(* ---------------------------------------------------------------- fig7 *)

let fig7 scale =
  Report.section "Fig 7"
    "transmission of GSet and GCounter w.r.t. delta-based BP+RR (tree & mesh)";
  let topologies =
    [ Topology.tree scale.nodes; Topology.partial_mesh scale.nodes ]
  in
  List.iter
    (fun topo ->
      let run_gset =
        H_gset.run ~topology:topo ~rounds:scale.rounds
          ~ops:(gset_ops scale.nodes) ()
      in
      check_converged run_gset;
      let base = Harness.baseline run_gset in
      Report.note "GSet / %s topology:" (Topology.name topo);
      Report.table
        ~header:[ "protocol"; "elements sent"; "ratio vs bp+rr" ]
        (List.map (ratio_row base) run_gset);
      let run_gc =
        H_gcounter.run ~topology:topo ~rounds:scale.rounds ~ops:gcounter_ops ()
      in
      check_converged run_gc;
      let base = Harness.baseline run_gc in
      Report.note "";
      Report.note "GCounter / %s topology:" (Topology.name topo);
      Report.table
        ~header:[ "protocol"; "entries sent"; "ratio vs bp+rr" ]
        (List.map (ratio_row base) run_gc);
      Report.note "")
    topologies

(* ---------------------------------------------------------------- fig8 *)

let fig8 scale =
  Report.section "Fig 8"
    "transmission of GMap 10%, 30%, 60%, 100% w.r.t. BP+RR (tree & mesh)";
  let topologies =
    [ Topology.tree scale.nodes; Topology.partial_mesh scale.nodes ]
  in
  List.iter
    (fun topo ->
      List.iter
        (fun k ->
          let run =
            H_gmap.run ~topology:topo ~rounds:scale.rounds
              ~ops:
                (gmap_ops ~total_keys:scale.gmap_keys ~k ~nodes:scale.nodes)
              ()
          in
          check_converged run;
          let base = Harness.baseline run in
          Report.note "GMap %d%% / %s topology:" k (Topology.name topo);
          Report.table
            ~header:[ "protocol"; "entries sent"; "ratio vs bp+rr" ]
            (List.map (ratio_row base) run);
          Report.note "")
        [ 10; 30; 60; 100 ])
    topologies

(* ---------------------------------------------------------------- fig9 *)

let fig9 scale =
  Report.section "Fig 9"
    "synchronization metadata per node while varying the number of nodes \
     (GSet, mesh)";
  let selection =
    [
      "delta-bp+rr"; "scuttlebutt"; "scuttlebutt-gc"; "op-based"; "merkle";
      "conflict-sync";
    ]
  in
  let rows =
    List.concat_map
      (fun n ->
        let topo = Topology.partial_mesh n in
        let run =
          H_gset.run ~selection ~topology:topo ~rounds:scale.rounds
            ~ops:(gset_ops n) ()
        in
        check_converged run;
        List.map
          (fun (o : Harness.outcome) ->
            [
              o.protocol;
              string_of_int n;
              Report.bytes o.summary.Metrics.avg_metadata_memory_bytes;
              Report.pct (Metrics.metadata_fraction o.summary);
            ])
          run)
      scale.metadata_nodes
  in
  Report.table
    ~header:
      [ "protocol"; "nodes"; "metadata/node (avg)"; "metadata share of tx" ]
    rows;
  Report.note "";
  Report.note
    "Paper's claim at 32 nodes: metadata is 75%% / 99%% / 97%% of transmission";
  Report.note
    "for scuttlebutt / scuttlebutt-gc / op-based, vs 7.7%% for delta-based."

(* --------------------------------------------------------------- fig10 *)

let fig10 scale =
  Report.section "Fig 10"
    "average memory ratio w.r.t. BP+RR (GCounter, GSet, GMap 10%, GMap 100%; \
     mesh)";
  let topo = Topology.partial_mesh scale.nodes in
  let mem (o : Harness.outcome) = o.full.Metrics.avg_memory_weight in
  let report name run =
    check_converged run;
    let base = Harness.baseline run in
    Report.note "%s:" name;
    Report.table
      ~header:[ "protocol"; "avg resident elements"; "ratio vs bp+rr" ]
      (List.map
         (fun (o : Harness.outcome) ->
           [
             o.protocol;
             Printf.sprintf "%.0f" (mem o);
             Report.f2 (Metrics.fratio ~baseline:(mem base) (mem o));
           ])
         run);
    Report.note ""
  in
  report "GCounter"
    (H_gcounter.run ~topology:topo ~rounds:scale.rounds ~ops:gcounter_ops ());
  report "GSet"
    (H_gset.run ~topology:topo ~rounds:scale.rounds ~ops:(gset_ops scale.nodes)
       ());
  List.iter
    (fun k ->
      report
        (Printf.sprintf "GMap %d%%" k)
        (H_gmap.run ~topology:topo ~rounds:scale.rounds
           ~ops:(gmap_ops ~total_keys:scale.gmap_keys ~k ~nodes:scale.nodes)
           ()))
    [ 10; 100 ]

(* ---------------------------------------------------------------- tab2 *)

let table2 scale =
  Report.section "Tab II" "Retwis workload characterization (measured)";
  let wl =
    Crdt_retwis.Workload.make ~seed:99 ~users:scale.retwis_users
      ~coefficient:1.0
  in
  (* Drive the generator against an evolving per-user table so posts
     fan out. *)
  let module U = Crdt_retwis.User_state in
  let users = Hashtbl.create 64 in
  let find user =
    Option.value (Hashtbl.find_opt users user) ~default:U.bottom
  in
  let i0 = Replica_id.of_int 0 in
  for round = 0 to 5000 do
    List.iter
      (fun (user, op) ->
        Hashtbl.replace users user (U.mutate op i0 (find user)))
      (Crdt_retwis.Workload.raw_ops wl ~round ~node:0
         ~followers_of:(fun user -> U.followers (find user))
         ~timeline_of:(fun user -> ignore (U.recent_timeline (find user))))
  done;
  let follows, posts, reads, updates_per_post = Crdt_retwis.Workload.mix wl in
  Report.table
    ~header:[ "operation"; "#updates"; "workload %"; "measured %" ]
    [
      [ "Follow"; "1"; "15%"; Report.f1 follows ^ "%" ];
      [
        "Post Tweet";
        "1 + #followers";
        "35%";
        Printf.sprintf "%s%% (avg %.1f updates)" (Report.f1 posts)
          updates_per_post;
      ];
      [ "Timeline"; "0"; "50%"; Report.f1 reads ^ "%" ];
    ]

(* ------------------------------------------------------------- ablation *)

module H_naive = Harness.Make (Gset.Naive_of_int)

(* Section III-B ablation: the original δ-mutator of [13] returns a
   singleton even when the element is already present; the optimal one
   returns ⊥.  Under a contended workload (re-adds dominate), the naive
   mutator keeps feeding redundant singletons into the δ-buffer. *)
let ablation scale =
  Report.section "Abl" "δ-mutator optimality ablation (Section III-B)";
  let topo = Topology.partial_mesh scale.nodes in
  let pool = 2 * scale.nodes in
  let ops ~round ~node state =
    Workload.gset_contended ~pool ~round ~node state
  in
  let selection = [ "delta-classic"; "delta-bp+rr" ] in
  let optimal = H_gset.run ~selection ~topology:topo ~rounds:scale.rounds ~ops () in
  let naive = H_naive.run ~selection ~topology:topo ~rounds:scale.rounds ~ops () in
  check_converged optimal;
  check_converged naive;
  Report.note
    "contended GSet (%d-element pool, mostly re-adds), %d nodes, %d rounds:"
    pool scale.nodes scale.rounds;
  let rows =
    List.concat_map
      (fun (tag, outcomes) ->
        List.map
          (fun (o : Harness.outcome) ->
            [
              o.protocol;
              tag;
              string_of_int o.summary.Metrics.totals.payload;
            ])
          outcomes)
      [ ("optimal (Fig. 2b)", optimal); ("naive [13]", naive) ]
  in
  Report.table ~header:[ "protocol"; "δ-mutator"; "elements sent" ] rows;
  Report.note "";
  Report.note
    "The optimal δ-mutator alone removes every re-add from the wire; the \
     naive one keeps shipping redundant singletons even under BP+RR."

(* --------------------------------------------------------- fig11/fig12 *)

module Retwis_classic =
  Crdt_retwis.Sharded_store.Delta (Crdt_proto.Delta_sync.Classic_config)
module Retwis_bprr =
  Crdt_retwis.Sharded_store.Delta (Crdt_proto.Delta_sync.Bp_rr_config)
module Rr_classic = Runner.Make (Retwis_classic)
module Rr_bprr = Runner.Make (Retwis_bprr)

(* One Retwis run on the [scale]'s mesh; each run draws from a fresh,
   identically seeded workload, so repeated runs are identical. *)
let retwis_ops scale coefficient =
  let wl =
    Crdt_retwis.Workload.make ~seed:31 ~users:scale.retwis_users ~coefficient
  in
  fun ~round ~node state ->
    Crdt_retwis.Workload.ops_sharded wl ~round ~node state

let run_retwis_classic scale topo coefficient =
  Rr_classic.run ~equal:Retwis_classic.equal_states ~topology:topo
    ~rounds:scale.retwis_rounds ~ops:(retwis_ops scale coefficient) ()

let run_retwis_bprr scale topo coefficient =
  Rr_bprr.run ~equal:Retwis_bprr.equal_states ~topology:topo
    ~rounds:scale.retwis_rounds ~ops:(retwis_ops scale coefficient) ()

let retwis_note scale =
  Report.note "%d nodes (mesh), %d users, %d rounds" scale.retwis_nodes
    scale.retwis_users scale.retwis_rounds

type retwis_point = {
  coefficient : float;
  tx_classic : float;  (** bytes transmitted per node per round. *)
  tx_bprr : float;
  mem_classic : float;  (** average resident bytes per node. *)
  mem_bprr : float;
}

let retwis_sweep scale =
  let topo = Topology.partial_mesh scale.retwis_nodes in
  List.map
    (fun coefficient ->
      let per_node_round x =
        x /. float_of_int (scale.retwis_nodes * scale.retwis_rounds)
      in
      let rc = run_retwis_classic scale topo coefficient in
      let rb = run_retwis_bprr scale topo coefficient in
      if not (rc.Rr_classic.converged && rb.Rr_bprr.converged) then
        failwith "retwis run failed to converge";
      let sc = Rr_classic.summary rc and sb = Rr_bprr.summary rb in
      {
        coefficient;
        tx_classic =
          per_node_round
            (float_of_int (Metrics.total_transmission_bytes sc));
        tx_bprr =
          per_node_round
            (float_of_int (Metrics.total_transmission_bytes sb));
        mem_classic =
          sc.Metrics.avg_memory_bytes /. float_of_int scale.retwis_nodes;
        mem_bprr =
          sb.Metrics.avg_memory_bytes /. float_of_int scale.retwis_nodes;
      })
    scale.zipf_coefficients

let fig11 scale =
  Report.section "Fig 11"
    "Retwis: transmission and memory per node, classic vs BP+RR, by Zipf \
     coefficient";
  retwis_note scale;
  let points = retwis_sweep scale in
  Report.table
    ~header:
      [
        "zipf";
        "tx/node/round classic";
        "tx/node/round bp+rr";
        "mem/node classic";
        "mem/node bp+rr";
      ]
    (List.map
       (fun p ->
         [
           Report.f2 p.coefficient;
           Report.bytes p.tx_classic;
           Report.bytes p.tx_bprr;
           Report.bytes p.mem_classic;
           Report.bytes p.mem_bprr;
         ])
       points)

(* Fig. 12: measured process CPU of whole Retwis runs, classic against
   BP+RR, per Zipf coefficient.  Returns the rows as JSON. *)
let fig12 scale =
  Report.section "Fig 12" "CPU overhead of classic delta-based vs BP+RR";
  retwis_note scale;
  Report.note "process CPU per run, %d repetitions of >= %.2f s" scale.cpu_reps
    scale.cpu_floor;
  let topo = Topology.partial_mesh scale.retwis_nodes in
  let rows =
    List.map
      (fun coefficient ->
        let cells =
          measure_cpu scale
            [
              ( "retwis delta-classic",
                fun () ->
                  (run_retwis_classic scale topo coefficient).Rr_classic.converged
              );
              ( "retwis delta-bp+rr",
                fun () ->
                  (run_retwis_bprr scale topo coefficient).Rr_bprr.converged );
            ]
        in
        (coefficient, List.nth cells 0, List.nth cells 1))
      scale.zipf_coefficients
  in
  let overhead (c : Report.spread) (b : Report.spread) =
    (c.median -. b.median) /. b.median
  in
  Report.table
    ~header:
      [
        "zipf"; "classic CPU/run"; "IQR/median"; "reps"; "bp+rr CPU/run";
        "IQR/median"; "reps"; "overhead (x)";
      ]
    (List.map
       (fun (z, c, b) ->
         (Report.f2 z :: cpu_cells c)
         @ cpu_cells b
         @ [ ratio_cell ~resolved:(resolved [ c; b ]) (overhead c b) ])
       rows);
  Report.note
    "overhead = (classic - bp+rr) / bp+rr; the paper reports 0.4x / 5.5x / \
     7.9x at zipf 1 / 1.25 / 1.5 (50 nodes, 10000 users).";
  Printf.sprintf {|{"nodes": %d, "users": %d, "rounds": %d, "rows": %s}|}
    scale.retwis_nodes scale.retwis_users scale.retwis_rounds
    (json_rows
       (List.map
          (fun (z, c, b) ->
            Printf.sprintf
              {|{"zipf": %.2f, "classic": %s, "bprr": %s, "overhead": %.4f, "resolved": %b}|}
              z (cell_json c) (cell_json b) (overhead c b) (resolved [ c; b ]))
          rows))
