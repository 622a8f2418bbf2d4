(* Reconnect cost as a function of divergence (the ConflictSync claim).

   Two replicas share a seeded state, then diverge by a controlled
   ratio — disjoint updates applied on each side of a simulated
   partition whose traffic is lost — and reconnect.  From the reconnect
   on, every delivered message is sized exactly by the lib/wire codecs
   (exact framed bytes via the counting trace sink), and the sweep
   records what each synchronization family pays to re-converge:

   - conflict-sync : digest detection + rateless-IBLT / Bloom session,
     expected to scale with the difference |⇓a △ ⇓b|;
   - merkle        : hash-tree descent, scales with touched buckets;
   - delta-classic : its recovery resync ships the full durable state,
     scales with |⇓a ∪ ⇓b| regardless of the difference;
   - state-based   : full state both ways, the floor baseline.

   The reconnect event restarts replica 1 (crash + recover at the heal
   boundary), which is the uniform trigger every protocol understands:
   each runs whatever reconnect machinery it owns — delta-classic's
   SyncReq/SyncResp, conflict-sync's resync session, merkle's and
   state-based's ordinary anti-entropy.

   The run fails (non-zero exit through an exception) unless, on every
   (crdt, ratio) cell, conflict-sync's reconnect bytes undercut both
   merkle and delta-classic, and unless its cost at 0.1% divergence is
   at most a tenth of its cost at 50% — the difference-scaling headline.
   A partition-heal cluster scenario (lib/sim/fault schedule, heal at
   the measured boundary, partition-tolerant protocols only) rides
   along for the multi-node picture.  With --json the tables land in
   BENCH_divergence_sweep.json. *)

open Crdt_core
open Crdt_sim
module Workload = Crdt_engine.Workload
module Registry = Crdt_engine.Registry
module Trace = Crdt_engine.Trace

type pair_row = {
  crdt : string;
  protocol : string;
  ratio : float;
  seeded : int;  (** irreducibles both sides share before the gap. *)
  diff : int;  (** size of the symmetric difference at reconnect. *)
  reconnect_bytes : int;  (** exact framed bytes, reconnect → equality. *)
  digest_bytes : int;  (** the control-traffic share of those bytes. *)
  messages : int;
  rounds : int;  (** reconnect rounds until states were equal. *)
  converged : bool;
}

type cluster_row = {
  c_protocol : string;
  c_nodes : int;
  c_heal_bytes : int;  (** exact framed bytes over the post-heal tail. *)
  c_heal_rounds : int;
  c_converged : bool;
}

(* -- the two-replica divergence cell ------------------------------------ *)

module Pair (C : Crdt_proto.Protocol_intf.CRDT) = struct
  module Protocols = Registry.For (C)

  (* Seed both replicas with [seed_ops] (applied at 0, synced across),
     apply the disjoint gap ops while discarding all traffic, restart
     replica 1 at the heal boundary, then count delivered wire bytes
     until the states are equal again. *)
  let measure (module P : Protocols.S) ~crdt ~ratio ~seeded ~diff ~seed_ops
      ~gap0 ~gap1 =
    let module D = Crdt_engine.Driver.Make (P) in
    let counters = Trace.make_counters () in
    let sink = Trace.counting counters in
    let a = D.create ~sink ~exact_bytes:true ~id:0 ~neighbors:[ 1 ] ~total:2 ()
    and b =
      D.create ~sink ~exact_bytes:true ~id:1 ~neighbors:[ 0 ] ~total:2 ()
    in
    let node = function 0 -> a | _ -> b in
    let round = ref 0 in
    let q = Queue.create () in
    let emit_from src ~dest msg = Queue.add (src, dest, msg) q in
    (* Replies cascade within the round, like the simulator's loop. *)
    let drain () =
      while not (Queue.is_empty q) do
        let src, dest, msg = Queue.pop q in
        D.deliver (node dest) ~round:!round ~src ~emit:(emit_from dest) msg
      done
    in
    let equal () = C.equal (D.state a) (D.state b) in
    let exchange limit =
      let r0 = !round in
      while (not (equal ())) && !round - r0 < limit do
        D.tick a ~round:!round ~emit:(emit_from 0);
        D.tick b ~round:!round ~emit:(emit_from 1);
        drain ();
        incr round
      done;
      !round - r0
    in
    ignore (D.apply a seed_ops);
    ignore (exchange 32);
    if not (equal ()) then
      failwith
        (Printf.sprintf "divergence_sweep: %s/%s seed phase did not converge"
           crdt P.protocol_name);
    (* Partition gap: disjoint updates per side, every message lost.  A
       few discarded ticks flush the protocols' send buffers, exactly
       what a real cut does to them. *)
    ignore (D.apply a gap0);
    ignore (D.apply b gap1);
    let discard ~dest:_ _ = () in
    for _ = 1 to 3 do
      D.tick a ~round:!round ~emit:discard;
      D.tick b ~round:!round ~emit:discard;
      incr round
    done;
    Queue.clear q;
    (* Reconnect: replica 1 restarts; count everything from here. *)
    Trace.reset_counters counters;
    D.crash b ~round:!round;
    D.recover b ~round:!round;
    let rounds = exchange 64 in
    {
      crdt;
      protocol = P.protocol_name;
      ratio;
      seeded;
      diff;
      reconnect_bytes = counters.Trace.wire_bytes;
      digest_bytes = counters.Trace.digest_bytes;
      messages = counters.Trace.messages;
      rounds;
      converged = equal ();
    }
end

module P_gset = Pair (Gset.Of_int)
module P_gmap = Pair (Gmap.Versioned)

let pair_protocols =
  [ "conflict-sync"; "merkle"; "delta-classic"; "state-based" ]

(* d unique updates split across the two sides; always at least one so
   a "0.1% of a quick-scale state" cell still diverges. *)
let split ~seeded ratio =
  let d = max 1 (int_of_float (ratio *. float_of_int seeded)) in
  (d, (d + 1) / 2, d / 2)

(* Realistic identifiers, not dense small ints: set members and map keys
   in deployed CRDTs are content hashes, UUIDs and object ids, i.e.
   full-width integers (the paper's byte model likewise charges 8 B per
   int).  A dense [0..n) keyspace would make every element a 1–2 byte
   varint and full-state resync artificially cheap.  The LCG is a
   bijection mod 2^64, so distinct inputs stay distinct. *)
let ident i = ((i * 0x2545F4914F6CDD1D) + 0x123456789ABCDEF) land max_int

let gset_cell ~seeded ~ratio protocol =
  let d, d0, d1 = split ~seeded ratio in
  P_gset.measure (P_gset.Protocols.find protocol) ~crdt:"gset" ~ratio ~seeded
    ~diff:d
    ~seed_ops:(List.init seeded ident)
    ~gap0:(List.init d0 (fun i -> ident (1_000_000 + i)))
    ~gap1:(List.init d1 (fun i -> ident (2_000_000 + i)))

let gmap_cell ~seeded ~ratio protocol =
  let d, d0, d1 = split ~seeded ratio in
  let bump k = Gmap.Versioned.Apply (ident k, Version.Bump) in
  P_gmap.measure (P_gmap.Protocols.find protocol) ~crdt:"gmap" ~ratio ~seeded
    ~diff:d
    ~seed_ops:(List.init seeded bump)
    ~gap0:(List.init d0 (fun i -> bump (1_000_000 + i)))
    ~gap1:(List.init d1 (fun i -> bump (2_000_000 + i)))

let pair_rows ~seeded ~ratios =
  List.concat_map
    (fun ratio ->
      List.map (gset_cell ~seeded ~ratio) pair_protocols
      @ List.map (gmap_cell ~seeded ~ratio) pair_protocols)
    ratios

(* -- partition-heal cluster scenario ------------------------------------ *)

(* Half the partial mesh is cut from the other half for the back half of
   the measured phase; the heal lands at the measured boundary, so the
   quiescent tail is exactly the post-heal reconciliation — its wire
   bytes are the cluster reconnect cost.  Only protocols declaring
   partition tolerance can run the plan (delta-classic cannot; the
   ack-mode δ-buffer stands in for the delta family). *)
let cluster_protocols =
  [ "conflict-sync"; "merkle"; "delta-bp+rr-ack"; "state-based" ]

let cluster_cell ~nodes ~rounds protocol =
  let module C = Gset.Of_int in
  let module P = (val P_gset.Protocols.find protocol) in
  let module R = Runner.Make (P) in
  let half = List.init (nodes / 2) (fun i -> i) in
  let rest = List.init (nodes - (nodes / 2)) (fun i -> (nodes / 2) + i) in
  let faults =
    {
      Fault.none with
      Fault.partitions =
        [
          Fault.partition ~from_round:(rounds / 3) ~heal_round:rounds
            [ half; rest ];
        ];
    }
  in
  let res =
    R.run ~faults ~bytes:Metrics.Exact ~equal:C.equal
      ~topology:(Topology.partial_mesh nodes)
      ~rounds
      ~ops:(fun ~round ~node _ -> Workload.gset ~nodes ~round ~node ())
      ()
  in
  let tail = Metrics.summarize res.R.quiesce_rounds in
  {
    c_protocol = protocol;
    c_nodes = nodes;
    c_heal_bytes = tail.Metrics.totals.wire_bytes;
    c_heal_rounds = Array.length res.R.quiesce_rounds;
    c_converged = res.R.converged;
  }

(* -- assertions ---------------------------------------------------------- *)

(* The paper's claim, checked per cell on exact bytes: conflict-sync's
   reconnect cost undercuts both the tree baseline and the delta
   family's full-state resync. *)
let check_pair_ordering rows =
  let cells =
    List.sort_uniq compare (List.map (fun r -> (r.crdt, r.ratio)) rows)
  in
  List.filter_map
    (fun (crdt, ratio) ->
      let find proto =
        List.find
          (fun r -> r.crdt = crdt && r.ratio = ratio && r.protocol = proto)
          rows
      in
      let cs = find "conflict-sync"
      and mk = find "merkle"
      and cl = find "delta-classic" in
      if
        cs.reconnect_bytes < mk.reconnect_bytes
        && cs.reconnect_bytes < cl.reconnect_bytes
      then None
      else
        Some
          (Printf.sprintf
             "%s @ %.3f: conflict-sync=%d merkle=%d delta-classic=%d \
              violates conflict-sync < min(merkle, delta-classic)"
             crdt ratio cs.reconnect_bytes mk.reconnect_bytes
             cl.reconnect_bytes))
    cells

(* Difference scaling: the cheapest-divergence cell must cost at most a
   tenth of the worst-divergence cell (per CRDT). *)
let check_scaling rows =
  List.filter_map
    (fun crdt ->
      let at ratio =
        List.find
          (fun r ->
            r.crdt = crdt && r.protocol = "conflict-sync" && r.ratio = ratio)
          rows
      in
      let ratios =
        List.sort_uniq compare
          (List.filter_map
             (fun r -> if r.crdt = crdt then Some r.ratio else None)
             rows)
      in
      let lo = at (List.hd ratios) and hi = at (List.hd (List.rev ratios)) in
      if lo.reconnect_bytes * 10 <= hi.reconnect_bytes then None
      else
        Some
          (Printf.sprintf
             "%s: conflict-sync %d B @ %.3f not <= 1/10 of %d B @ %.3f" crdt
             lo.reconnect_bytes lo.ratio hi.reconnect_bytes hi.ratio))
    (List.sort_uniq compare (List.map (fun r -> r.crdt) rows))

let check_converged rows =
  List.filter_map
    (fun r ->
      if r.converged then None
      else
        Some
          (Printf.sprintf "%s/%s @ %.3f did not re-converge" r.crdt r.protocol
             r.ratio))
    rows

(* -- reporting ----------------------------------------------------------- *)

let print_pair rows =
  Report.table
    ~header:
      [
        "crdt"; "ratio"; "diff"; "protocol"; "reconnect B"; "digest B";
        "msgs"; "rounds";
      ]
    (List.map
       (fun r ->
         [
           r.crdt;
           Printf.sprintf "%.3f" r.ratio;
           string_of_int r.diff;
           r.protocol;
           string_of_int r.reconnect_bytes;
           string_of_int r.digest_bytes;
           string_of_int r.messages;
           Printf.sprintf "%d%s" r.rounds (if r.converged then "" else "!");
         ])
       rows)

let print_cluster rows =
  Report.table
    ~header:[ "protocol"; "nodes"; "heal B"; "heal rounds" ]
    (List.map
       (fun r ->
         [
           r.c_protocol;
           string_of_int r.c_nodes;
           string_of_int r.c_heal_bytes;
           Printf.sprintf "%d%s" r.c_heal_rounds
             (if r.c_converged then "" else "!");
         ])
       rows)

let write_json path ~scale ~seeded pair cluster =
  let oc = open_out path in
  let out fmt = Printf.fprintf oc fmt in
  out "{\n  \"bench\": \"divergence_sweep\",\n  \"schema\": 1,\n";
  out "  \"host\": %s,\n" (Report.host_json ());
  out "  \"scale\": %S,\n" scale;
  out "  \"seeded\": %d,\n" seeded;
  out
    "  \"accounting\": \"exact framed wire bytes (lib/wire codecs), \
     reconnect phase only\",\n";
  out "  \"pair_sweep\": [\n";
  List.iteri
    (fun i r ->
      out
        "    {\"crdt\": %S, \"ratio\": %.3f, \"diff\": %d, \"protocol\": %S,\n\
        \     \"reconnect_bytes\": %d, \"digest_bytes\": %d, \"messages\": \
         %d, \"rounds\": %d, \"converged\": %b}%s\n"
        r.crdt r.ratio r.diff r.protocol r.reconnect_bytes r.digest_bytes
        r.messages r.rounds r.converged
        (if i = List.length pair - 1 then "" else ","))
    pair;
  out "  ],\n  \"partition_heal\": [\n";
  List.iteri
    (fun i r ->
      out
        "    {\"crdt\": \"gset\", \"protocol\": %S, \"nodes\": %d, \
         \"heal_bytes\": %d, \"heal_rounds\": %d, \"converged\": %b}%s\n"
        r.c_protocol r.c_nodes r.c_heal_bytes r.c_heal_rounds r.c_converged
        (if i = List.length cluster - 1 then "" else ","))
    cluster;
  out "  ]\n}\n";
  close_out oc;
  Report.note "wrote %s" path

let run ?(quick = false) ?json_path () =
  let seeded = if quick then 1500 else 4000 in
  let ratios = if quick then [ 0.001; 0.5 ] else [ 0.001; 0.01; 0.1; 0.5 ] in
  let nodes = if quick then 6 else 8 in
  let rounds = if quick then 9 else 12 in
  Report.section "divergence_sweep"
    "reconnect wire bytes vs divergence ratio (conflict-sync claim)";
  let pair = pair_rows ~seeded ~ratios in
  print_pair pair;
  let cluster = List.map (cluster_cell ~nodes ~rounds) cluster_protocols in
  Report.note "partition-heal cluster (gset, partial mesh, heal at measured \
               boundary):";
  print_cluster cluster;
  (match json_path with
  | None -> ()
  | Some path ->
      write_json path
        ~scale:(if quick then "quick" else "default")
        ~seeded pair cluster);
  let violations =
    check_converged pair @ check_pair_ordering pair @ check_scaling pair
    @ List.filter_map
        (fun r ->
          if r.c_converged then None
          else Some (Printf.sprintf "cluster %s did not heal" r.c_protocol))
        cluster
  in
  match violations with
  | [] ->
      Report.note
        "conflict-sync < min(merkle, delta-classic) on all cells; 10x \
         difference scaling holds"
  | vs ->
      List.iter (fun v -> Report.note "VIOLATION: %s" v) vs;
      failwith "divergence_sweep: reconnect-cost claims violated"
