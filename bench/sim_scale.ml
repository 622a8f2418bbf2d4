(* Node-count scalability of the simulation engine itself.

   Sweeps 16/32/64/128/256 nodes over tree and partial-mesh topologies,
   GSet and GMap workloads, classic and BP+RR delta protocols, and
   reports wall-clock per round plus throughput (messages/sec, ops/sec)
   for two configurations:

   - seq:    the wave engine at domains = 1;
   - par N:  the same engine with an N-domain pool.

   Every domain count computes bit-identical results, so par/seq is
   exactly what the pool buys.  With --json the table also lands in
   BENCH_sim_scale.json so the perf trajectory is tracked across
   changes. *)

open Crdt_core
open Crdt_sim
module Workload = Crdt_engine.Workload

let wall f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* Best-of-[samples] wall time: every engine recomputes the same
   deterministic run, so the minimum is the cleanest estimate of its
   cost on a shared host — scheduler noise only ever adds time. *)
let wall_best ~samples f =
  let rec go best_r best_s i =
    if i >= samples then (best_r, best_s)
    else
      let r, s = wall f in
      if s < best_s then go r s (i + 1) else go best_r best_s (i + 1)
  in
  let r, s = wall f in
  go r s 1

(* -- sweep -------------------------------------------------------------- *)

type row = {
  crdt : string;
  topo : string;
  nodes : int;
  protocol : string;
  rounds : int;
  seq_s : float;
  par_s : (int * float) list;  (** (domains, seconds). *)
  msgs : int;  (** total messages incl. the convergence tail. *)
  ops : int;
  converged : bool;
}

module Sweep (C : Crdt_proto.Protocol_intf.CRDT) = struct
  module Protocols = Crdt_engine.Registry.For (C)

  let measure (module P : Protocols.S) ~crdt ~topology ~rounds ~gen_ops
      ~domain_counts ~samples =
    let module R = Runner.Make (P) in
    let ops ~round ~node _state = gen_ops ~round ~node in
    let seq_res, seq_s =
      wall_best ~samples (fun () -> R.run ~equal:C.equal ~topology ~rounds ~ops ())
    in
    let par_s =
      List.map
        (fun d ->
          ( d,
            snd
              (wall_best ~samples (fun () ->
                   R.run ~domains:d ~equal:C.equal ~topology ~rounds ~ops ()))
          ))
        domain_counts
    in
    let s = R.full_summary seq_res in
    {
      crdt;
      topo = Topology.name topology;
      nodes = Topology.size topology;
      protocol = P.protocol_name;
      rounds;
      seq_s;
      par_s;
      msgs = s.Metrics.totals.messages;
      ops = s.Metrics.totals.ops_applied;
      converged = seq_res.R.converged;
    }

  let measure_all ~crdt ~topology ~rounds ~gen_ops ~domain_counts ~samples =
    let m name =
      measure (Protocols.find name) ~crdt ~topology ~rounds ~gen_ops
        ~domain_counts ~samples
    in
    [ m "delta-classic"; m "delta-bp+rr" ]
end

module S_gset = Sweep (Gset.Of_int)
module S_gmap = Sweep (Gmap.Versioned)

let topologies n = [ Topology.tree n; Topology.partial_mesh n ]

let rows ~scales ~rounds ~domain_counts ~samples =
  List.concat_map
    (fun n ->
      (* Repeat only the scales the acceptance ratios are read from; the
         large tail cells are trend indicators and run once. *)
      let samples = if n <= 64 then samples else 1 in
      List.concat_map
        (fun topology ->
          S_gset.measure_all ~crdt:"gset" ~topology ~rounds
            ~gen_ops:(fun ~round ~node ->
              Workload.gset ~nodes:n ~round ~node ())
            ~domain_counts ~samples
          @ S_gmap.measure_all ~crdt:"gmap" ~topology ~rounds
              ~gen_ops:(fun ~round ~node ->
                Workload.gmap ~total_keys:1000 ~k:10 ~nodes:n ~round ~node ())
              ~domain_counts ~samples)
        (topologies n))
    scales

(* -- reporting ---------------------------------------------------------- *)

let per_round seconds rounds = seconds /. float_of_int rounds *. 1e3
let fnum v = if Float.is_finite v then Printf.sprintf "%.3f" v else "null"

let print_rows rows =
  Report.table
    ~header:
      [
        "crdt/topo"; "n"; "protocol"; "seq ms/rd"; "par ms/rd"; "par vs seq";
        "msg/s"; "op/s";
      ]
    (List.map
       (fun r ->
         let best_par =
           List.fold_left (fun acc (_, s) -> Float.min acc s) infinity r.par_s
         in
         [
           Printf.sprintf "%s/%s%s" r.crdt r.topo
             (if r.converged then "" else "!");
           string_of_int r.nodes;
           r.protocol;
           Printf.sprintf "%.2f" (per_round r.seq_s r.rounds);
           (if r.par_s = [] then "-"
            else Printf.sprintf "%.2f" (per_round best_par r.rounds));
           (if r.par_s = [] then "-"
            else Printf.sprintf "%.1fx" (r.seq_s /. best_par));
           Printf.sprintf "%.0f" (float_of_int r.msgs /. r.seq_s);
           Printf.sprintf "%.0f" (float_of_int r.ops /. r.seq_s);
         ])
       rows)

(* A non-converged run measured a broken synchronization, not the
   engine: its throughput/speedup figures would poison the cross-PR
   trajectory, so such rows are refused rather than recorded. *)
let write_json path ~scale all_rows =
  let rows, rejected =
    List.partition (fun r -> r.converged) all_rows
  in
  if rejected <> [] then
    Report.note
      "refusing to record %d non-converged row(s) in %s: %s"
      (List.length rejected) path
      (String.concat ", "
         (List.map
            (fun r ->
              Printf.sprintf "%s/%s/%s n=%d" r.crdt r.topo r.protocol r.nodes)
            rejected));
  let oc = open_out path in
  let out fmt = Printf.fprintf oc fmt in
  out "{\n  \"bench\": \"sim_scale\",\n  \"schema\": 1,\n";
  out "  \"host\": %s,\n" (Report.host_json ());
  out "  \"scale\": %S,\n" scale;
  out "  \"cores\": %d,\n" (Domain.recommended_domain_count ());
  out "  \"sweep\": [\n";
  List.iteri
    (fun i r ->
      let par =
        String.concat ", "
          (List.map
             (fun (d, s) ->
               Printf.sprintf
                 "{\"domains\": %d, \"seconds\": %s, \"speedup_vs_seq\": %s}" d
                 (fnum s)
                 (fnum (r.seq_s /. s)))
             r.par_s)
      in
      out
        "    {\"crdt\": %S, \"topology\": %S, \"nodes\": %d, \"protocol\": \
         %S, \"rounds\": %d,\n\
        \     \"seq_seconds\": %s, \"seq_ms_per_round\": %s, \
         \"msgs_per_sec\": %s, \"ops_per_sec\": %s, \"converged\": %b,\n\
        \     \"parallel\": [%s]}%s\n"
        r.crdt r.topo r.nodes r.protocol r.rounds
        (fnum r.seq_s)
        (fnum (per_round r.seq_s r.rounds))
        (fnum (float_of_int r.msgs /. r.seq_s))
        (fnum (float_of_int r.ops /. r.seq_s))
        r.converged par
        (if i = List.length rows - 1 then "" else ","))
    rows;
  out "  ]\n}\n";
  close_out oc;
  Report.note "wrote %s" path

let run ?(quick = false) ?json_path () =
  let scales = if quick then [ 16 ] else [ 16; 32; 64; 128; 256 ] in
  let rounds = if quick then 5 else 20 in
  let domain_counts = if quick then [ 2 ] else [ 2; 8 ] in
  let samples = if quick then 1 else 3 in
  Report.section "sim_scale"
    "engine scalability: nodes sweep, sequential vs parallel";
  Report.note
    "host reports %d usable core(s); parallel speedups are bounded by that"
    (Domain.recommended_domain_count ());
  let rows = rows ~scales ~rounds ~domain_counts ~samples in
  print_rows rows;
  Report.note
    "seq = wave engine, domains=1; par = best of domains in {%s}"
    (String.concat ", " (List.map string_of_int domain_counts));
  match json_path with
  | None -> ()
  | Some path ->
      write_json path ~scale:(if quick then "quick" else "default") rows
