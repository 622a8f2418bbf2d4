(* Node-count scalability of the simulation engine itself.

   Sweeps 16/32/64/128/256 nodes over tree and partial-mesh topologies,
   GSet and GMap workloads, classic and BP+RR delta protocols, and
   reports wall-clock per round plus throughput (messages/sec, ops/sec)
   for three configurations:

   - legacy: the full pre-PR stack, vendored below at the seed revision —
     the list-queue runner (O(n²) appends, Queue→list→Queue round-trips,
     a functional 9-field record update per message) driving the pre-PR
     delta protocol (per-message C.weight/C.byte_size traversals,
     per-origin buffer groups maintained even without BP) over the
     pre-PR map lattice (merge-walk ⊑/Δ, fold-the-map weight/byte_size);
   - seq:    the allocation-light wave engine at domains = 1, on the
     optimized protocol/lattice hot paths;
   - par N:  the same engine with an N-domain pool.

   Both stacks compute identical protocol semantics (same messages, same
   metric values, same convergence) — only the wall-clock differs, so
   legacy/seq is exactly what this PR buys end to end.  With --json the
   table also lands in BENCH_sim_scale.json so the perf trajectory is
   tracked across PRs. *)

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

(* ----------------------------------------------------------------------- *)
(* The pre-PR baseline stack, vendored at the seed revision.               *)
(* ----------------------------------------------------------------------- *)

module Legacy_stack = struct
  (* The slice of the CRDT signature the baseline protocol consumes. *)
  module type BASE = sig
    type t
    type op

    val bottom : t
    val is_bottom : t -> bool
    val equal : t -> t -> bool
    val join : t -> t -> t
    val leq : t -> t -> bool
    val weight : t -> int
    val byte_size : t -> int
    val delta : t -> t -> t
    val delta_mutate : op -> Replica_id.t -> t -> t
  end

  (* Pre-PR GMap (Int ↪→ Version): merge-walk [leq]/[delta] that traverse
     (and, for [leq]/[delta], allocate over) both maps, and
     fold-the-whole-map [weight]/[byte_size] — the lattice hot paths this
     PR replaced with lookup walks and cached sizes. *)
  module Gmap_versioned : BASE with type op = Gmap.Versioned.op = struct
    module M = Map.Make (Int)

    type t = Version.t M.t
    type op = Gmap.Versioned.op

    let bottom = M.empty
    let is_bottom = M.is_empty
    let equal = M.equal Version.equal
    let join = M.union (fun _k a b -> Some (Version.join a b))

    exception Not_leq

    let leq m1 m2 =
      match
        M.merge
          (fun _k v1 v2 ->
            match (v1, v2) with
            | None, _ -> None
            | Some v1, Some v2 ->
                if Version.leq v1 v2 then None else raise Not_leq
            | Some _, None -> raise Not_leq)
          m1 m2
      with
      | _ -> true
      | exception Not_leq -> false

    let weight m = M.fold (fun _ v acc -> acc + Version.weight v) m 0
    let byte_size m = M.fold (fun _ v acc -> acc + 8 + Version.byte_size v) m 0

    let delta m1 m2 =
      M.merge
        (fun _k v1 v2 ->
          match (v1, v2) with
          | None, _ -> None
          | Some v1, None -> Some v1
          | Some v1, Some v2 ->
              let d = Version.delta v1 v2 in
              if Version.is_bottom d then None else Some d)
        m1 m2

    let find k m =
      match M.find_opt k m with Some v -> v | None -> Version.bottom

    let delta_mutate (Gmap.Versioned.Apply (k, vop)) i m =
      let d = Version.delta_mutate vop i (find k m) in
      if Version.is_bottom d then M.empty else M.singleton k d
  end

  (* GSet is set-difference/subset-based in both eras (this PR did not
     touch Powerset), so the current module doubles as its own pre-PR
     lattice; only the protocol/engine layers above it differ. *)
  module Gset_base : BASE with type op = Gset.Of_int.op = Gset.Of_int

  (* One vendored baseline = pre-PR delta protocol (non-ack modes; the
     sweep exercises classic and BP+RR) under the pre-PR runner.  Both
     are verbatim ports of the seed revision, minus the ack-mode and
     fault-injection branches the sweep never takes. *)
  module Runner (B : BASE) (Cfg : sig
    val config : Crdt_proto.Delta_sync.config
  end) =
  struct
    module Origins = Map.Make (Int)

    let cfg = Cfg.config

    type node = {
      id : Replica_id.t;
      self : int;
      neighbors : int list;
      x : B.t;
      groups : B.t Origins.t;
      pending : B.t;
      next_seq : int;
    }

    type message = Delta of { group : B.t; seq : int }

    let init ~id ~neighbors =
      {
        id = Replica_id.of_int id;
        self = id;
        neighbors;
        x = B.bottom;
        groups = Origins.empty;
        pending = B.bottom;
        next_seq = 0;
      }

    (* Pre-PR store: per-origin group joined even without BP. *)
    let store n delta origin =
      {
        n with
        x = B.join n.x delta;
        next_seq = n.next_seq + 1;
        groups =
          Origins.update origin
            (function None -> Some delta | Some g -> Some (B.join g delta))
            n.groups;
        pending = B.join n.pending delta;
      }

    let local_update n op =
      let d = B.delta_mutate op n.id n.x in
      if B.is_bottom d then n else store n d n.self

    let exclusive_groups groups =
      let arr = Array.of_list (Origins.bindings groups) in
      let k = Array.length arr in
      let suffix = Array.make (k + 1) B.bottom in
      for i = k - 1 downto 0 do
        suffix.(i) <- B.join (snd arr.(i)) suffix.(i + 1)
      done;
      let excl = ref Origins.empty and prefix = ref B.bottom in
      for i = 0 to k - 1 do
        let o, g = arr.(i) in
        excl := Origins.add o (B.join !prefix suffix.(i + 1)) !excl;
        prefix := B.join !prefix g
      done;
      !excl

    let tick n =
      let msgs =
        if B.is_bottom n.pending then []
        else
          let excl =
            if cfg.Crdt_proto.Delta_sync.bp then exclusive_groups n.groups
            else Origins.empty
          in
          List.filter_map
            (fun j ->
              let g =
                if cfg.Crdt_proto.Delta_sync.bp then
                  match Origins.find_opt j excl with
                  | Some g -> g
                  | None -> n.pending
                else n.pending
              in
              if B.is_bottom g then None
              else Some (j, Delta { group = g; seq = n.next_seq }))
            n.neighbors
      in
      ({ n with groups = Origins.empty; pending = B.bottom }, msgs)

    let handle n ~src (Delta { group = d; seq = _ }) =
      if cfg.Crdt_proto.Delta_sync.rr then begin
        let extracted = B.delta d n.x in
        if B.is_bottom extracted then n else store n extracted src
      end
      else if B.leq d n.x then n
      else store n d src

    let tagged = cfg.Crdt_proto.Delta_sync.bp
    let payload_weight (Delta { group; _ }) = B.weight group
    let metadata_weight _ = if tagged then 1 else 0
    let payload_bytes (Delta { group; _ }) = B.byte_size group
    let metadata_bytes _ = if tagged then 8 else 0

    let memory_weight n =
      B.weight n.x + Origins.fold (fun _ g acc -> acc + B.weight g) n.groups 0

    let memory_bytes n =
      B.byte_size n.x
      + Origins.fold (fun _ g acc -> acc + B.byte_size g) n.groups 0

    let metadata_memory_bytes n = 8 * List.length n.neighbors

    (* -- the pre-PR engine, fault-free path ------------------------------ *)

    let snapshot nodes (acc : Metrics.round) : Metrics.round =
      let memory_weight_acc = ref 0
      and memory_bytes_acc = ref 0
      and metadata_memory_bytes_acc = ref 0 in
      Array.iter
        (fun n ->
          memory_weight_acc := !memory_weight_acc + memory_weight n;
          memory_bytes_acc := !memory_bytes_acc + memory_bytes n;
          metadata_memory_bytes_acc :=
            !metadata_memory_bytes_acc + metadata_memory_bytes n)
        nodes;
      {
        acc with
        memory_weight = !memory_weight_acc;
        memory_bytes = !memory_bytes_acc;
        metadata_memory_bytes = !metadata_memory_bytes_acc;
      }

    let deliver nodes queue (acc : Metrics.round) : Metrics.round =
      let acc = ref acc in
      let pending = Queue.create () in
      let push msgs = List.iter (fun m -> Queue.add m pending) msgs in
      push queue;
      while not (Queue.is_empty pending) do
        let batch =
          let all = List.of_seq (Queue.to_seq pending) in
          Queue.clear pending;
          all
        in
        List.iter
          (fun (src, dst, msg) ->
            acc :=
              {
                !acc with
                messages = !acc.messages + 1;
                payload = !acc.payload + payload_weight msg;
                metadata = !acc.metadata + metadata_weight msg;
                payload_bytes = !acc.payload_bytes + payload_bytes msg;
                metadata_bytes = !acc.metadata_bytes + metadata_bytes msg;
              };
            nodes.(dst) <- handle nodes.(dst) ~src msg)
          batch
      done;
      !acc

    let sync_round nodes (acc : Metrics.round) : Metrics.round =
      let queue = ref [] in
      Array.iteri
        (fun i _ ->
          let node, msgs = tick nodes.(i) in
          nodes.(i) <- node;
          queue := !queue @ List.map (fun (j, m) -> (i, j, m)) msgs)
        nodes;
      deliver nodes !queue acc

    let all_equal nodes =
      let first = nodes.(0).x in
      Array.for_all (fun n -> B.equal n.x first) nodes

    let run ?(quiesce_limit = 64) ~topology ~rounds ~ops () =
      let n = Topology.size topology in
      let nodes =
        Array.init n (fun i ->
            init ~id:i ~neighbors:(Topology.neighbors topology i))
      in
      for round = 0 to rounds - 1 do
        Array.iteri
          (fun i _ ->
            List.iter
              (fun op -> nodes.(i) <- local_update nodes.(i) op)
              (ops ~round ~node:i))
          nodes;
        ignore (snapshot nodes (sync_round nodes Metrics.empty_round))
      done;
      let steps = ref 0 in
      while (not (all_equal nodes)) && !steps < quiesce_limit do
        incr steps;
        ignore (snapshot nodes (sync_round nodes Metrics.empty_round))
      done;
      all_equal nodes
  end
end

(* -- sweep -------------------------------------------------------------- *)

type row = {
  crdt : string;
  topo : string;
  nodes : int;
  protocol : string;
  rounds : int;
  legacy_s : float option;  (** None when the baseline was skipped. *)
  seq_s : float;
  par_s : (int * float) list;  (** (domains, seconds). *)
  msgs : int;  (** total messages incl. the convergence tail. *)
  ops : int;
  converged : bool;
}

module Sweep
    (C : Crdt_proto.Protocol_intf.CRDT)
    (B : Legacy_stack.BASE with type op = C.op) =
struct
  module type PROTO =
    Crdt_proto.Protocol_intf.PROTOCOL
      with type crdt = C.t
       and type op = C.op

  let proto name : (module PROTO) =
    Crdt_engine.Registry.instantiate
      (Crdt_engine.Registry.find_protocol name)
      (module C : Crdt_proto.Protocol_intf.CRDT
        with type t = C.t
         and type op = C.op)

  module L_classic =
    Legacy_stack.Runner (B) (Crdt_proto.Delta_sync.Classic_config)
  module L_bp_rr = Legacy_stack.Runner (B) (Crdt_proto.Delta_sync.Bp_rr_config)

  let measure (module P : PROTO) ~legacy_run ~crdt ~topology ~rounds ~gen_ops
      ~domain_counts ~with_legacy ~samples =
    let module R = Runner.Make (P) in
    let ops ~round ~node _state = gen_ops ~round ~node in
    let seq_res, seq_s =
      wall_best ~samples (fun () -> R.run ~equal:C.equal ~topology ~rounds ~ops ())
    in
    let legacy_s =
      if with_legacy then begin
        let converged, s =
          wall_best ~samples (fun () ->
              legacy_run ~topology ~rounds ~ops:gen_ops ())
        in
        (* Same protocol semantics ⇒ same convergence verdict; a mismatch
           means the vendored baseline drifted from the real stack. *)
        assert (converged = seq_res.R.converged);
        Some s
      end
      else None
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
      legacy_s;
      seq_s;
      par_s;
      msgs = s.Metrics.total_messages;
      ops = s.Metrics.total_ops;
      converged = seq_res.R.converged;
    }

  let measure_all ~crdt ~topology ~rounds ~gen_ops ~domain_counts ~with_legacy
      ~samples =
    [
      measure (proto "delta-classic")
        ~legacy_run:(fun ~topology ~rounds ~ops () ->
          L_classic.run ~topology ~rounds ~ops ())
        ~crdt ~topology ~rounds ~gen_ops ~domain_counts ~with_legacy ~samples;
      measure (proto "delta-bp+rr")
        ~legacy_run:(fun ~topology ~rounds ~ops () ->
          L_bp_rr.run ~topology ~rounds ~ops ())
        ~crdt ~topology ~rounds ~gen_ops ~domain_counts ~with_legacy ~samples;
    ]
end

module S_gset = Sweep (Gset.Of_int) (Legacy_stack.Gset_base)
module S_gmap = Sweep (Gmap.Versioned) (Legacy_stack.Gmap_versioned)

let topologies n = [ Topology.tree n; Topology.partial_mesh n ]

let rows ~scales ~rounds ~domain_counts ~legacy_cap ~samples =
  List.concat_map
    (fun n ->
      let with_legacy = n <= legacy_cap in
      (* Repeat only the scales the acceptance ratios are read from; the
         large tail cells are trend indicators and run once. *)
      let samples = if n <= 64 then samples else 1 in
      List.concat_map
        (fun topology ->
          S_gset.measure_all ~crdt:"gset" ~topology ~rounds
            ~gen_ops:(fun ~round ~node ->
              Workload.gset ~nodes:n ~round ~node ())
            ~domain_counts ~with_legacy ~samples
          @ S_gmap.measure_all ~crdt:"gmap" ~topology ~rounds
              ~gen_ops:(fun ~round ~node ->
                Workload.gmap ~total_keys:1000 ~k:10 ~nodes:n ~round ~node ())
              ~domain_counts ~with_legacy ~samples)
        (topologies n))
    scales

(* -- reporting ---------------------------------------------------------- *)

let per_round seconds rounds = seconds /. float_of_int rounds *. 1e3
let fnum v = if Float.is_finite v then Printf.sprintf "%.3f" v else "null"

let print_rows rows =
  Report.table
    ~header:
      [
        "crdt/topo"; "n"; "protocol"; "legacy ms/rd"; "seq ms/rd"; "par ms/rd";
        "seq vs legacy"; "par vs seq"; "msg/s"; "op/s";
      ]
    (List.map
       (fun r ->
         let best_par =
           List.fold_left (fun acc (_, s) -> Float.min acc s) infinity
             (List.map (fun x -> x) r.par_s)
         in
         [
           Printf.sprintf "%s/%s%s" r.crdt r.topo
             (if r.converged then "" else "!");
           string_of_int r.nodes;
           r.protocol;
           (match r.legacy_s with
           | Some s -> Printf.sprintf "%.2f" (per_round s r.rounds)
           | None -> "-");
           Printf.sprintf "%.2f" (per_round r.seq_s r.rounds);
           (if r.par_s = [] then "-"
            else Printf.sprintf "%.2f" (per_round best_par r.rounds));
           (match r.legacy_s with
           | Some s -> Printf.sprintf "%.1fx" (s /. r.seq_s)
           | None -> "-");
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
  out "  \"baseline\": \"pre-PR stack (list-queue runner + uncached delta \
       protocol + merge-walk map lattice), vendored at the seed revision\",\n";
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
        \     \"legacy_seconds\": %s, \"seq_seconds\": %s, \
         \"seq_speedup_vs_legacy\": %s,\n\
        \     \"seq_ms_per_round\": %s, \"msgs_per_sec\": %s, \
         \"ops_per_sec\": %s, \"converged\": %b,\n\
        \     \"parallel\": [%s]}%s\n"
        r.crdt r.topo r.nodes r.protocol r.rounds
        (match r.legacy_s with Some s -> fnum s | None -> "null")
        (fnum r.seq_s)
        (match r.legacy_s with
        | Some s -> fnum (s /. r.seq_s)
        | None -> "null")
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
  (* The legacy stack's quadratic queue appends make it unaffordable at
     the top of the sweep; the speedup story is told at <= 64 nodes. *)
  let legacy_cap = if quick then 16 else 64 in
  let samples = if quick then 1 else 3 in
  Report.section "sim_scale"
    "engine scalability: nodes sweep, pre-PR stack vs allocation-light vs \
     parallel";
  Report.note
    "host reports %d usable core(s); parallel speedups are bounded by that"
    (Domain.recommended_domain_count ());
  let rows = rows ~scales ~rounds ~domain_counts ~legacy_cap ~samples in
  print_rows rows;
  Report.note
    "legacy = pre-PR stack vendored at the seed revision (list-queue runner, \
     uncached per-message weights, merge-walk map lattice); seq = wave \
     engine, domains=1; par = best of domains in {%s}"
    (String.concat ", " (List.map string_of_int domain_counts));
  match json_path with
  | None -> ()
  | Some path ->
      write_json path ~scale:(if quick then "quick" else "default") rows
