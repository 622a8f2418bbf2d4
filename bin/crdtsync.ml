(* crdtsync — command-line driver for the synchronization experiments.

   Subcommands:
     micro   run a micro-benchmark (Table I workload) under every protocol
     retwis  run the Retwis application benchmark (classic vs BP+RR)
     serve   run one live replica over real sockets (lib/net runtime)
     topo    describe a topology
     check   model-check SEC invariants over protocol × CRDT cells

   Examples:
     crdtsync micro --crdt gset --topology mesh --nodes 15 --rounds 100
     crdtsync micro --crdt gmap -k 60 --topology tree --bytes estimate
     crdtsync micro --drop 0.2 --crash 3:10:30 --partition '20:60:0,1,2'
     crdtsync retwis --zipf 1.25 --users 1000 --nodes 16 --rounds 40
     crdtsync serve --id 0 --listen 127.0.0.1:7000 --peer 1=127.0.0.1:7001
     crdtsync topo --topology mesh --nodes 15

   Protocol and CRDT dispatch goes through Crdt_engine.Registry: micro
   runs the harness's default lineup (every registered protocol but the
   ack-mode one, which joins under a fault plan), serve accepts any
   registered protocol × CRDT cell.

   Fault flags build a Crdt_sim.Fault.plan; protocols whose declared
   capabilities do not cover the plan are skipped (micro) or rejected
   (retwis).  Any non-converged run exits with status 1. *)

open Cmdliner
open Crdt_sim
module Registry = Crdt_engine.Registry
module Trace = Crdt_engine.Trace

let topology_arg =
  Arg.(
    value & opt string "mesh"
    & info [ "topology"; "t" ] ~docv:"NAME"
        ~doc:"Topology: tree, mesh, ring, line, star or full.")

let nodes_arg =
  Arg.(
    value & opt int 15
    & info [ "nodes"; "n" ] ~docv:"N" ~doc:"Number of replicas.")

let rounds_arg =
  Arg.(
    value & opt int 100
    & info [ "rounds"; "r" ] ~docv:"R"
        ~doc:"Synchronization rounds (one update per node per round).")

let crdt_arg =
  Arg.(
    value & opt string "gset"
    & info [ "crdt"; "c" ] ~docv:"CRDT"
        ~doc:
          (Printf.sprintf "Replicated data type: %s."
             (String.concat ", " Registry.crdt_names)))

let domains_arg =
  Arg.(
    value & opt int 1
    & info [ "domains"; "d" ] ~docv:"D"
        ~doc:
          "Worker domains for the parallel engine (1 = sequential). Any \
           value yields bit-identical results; speedups need as many cores.")

(* Shared --domains validation (micro and retwis): a non-positive
   width is an error; oversubscribing the machine is legal (results are
   width-independent) but earns a warning since it can only slow the
   run down. *)
let validate_domains domains =
  if domains < 1 then
    invalid_arg (Printf.sprintf "--domains must be >= 1 (got %d)" domains);
  let cores = Domain.recommended_domain_count () in
  if domains > cores then
    Printf.eprintf
      "warning: --domains %d exceeds this machine's %d available core%s; \
       results are identical but expect no speedup\n\
       %!"
      domains cores
      (if cores = 1 then "" else "s")

(* -- fault flags (micro and retwis) ------------------------------------- *)

let parse_ints ~what s =
  List.map
    (fun tok ->
      match int_of_string_opt (String.trim tok) with
      | Some i -> i
      | None -> invalid_arg (Printf.sprintf "bad %s spec %S" what s))
    (String.split_on_char ':' s)

(* "VICTIM:AT:REC" *)
let parse_crash s =
  match parse_ints ~what:"--crash" s with
  | [ victim; crash_round; recover_round ] ->
      Fault.crash ~victim ~crash_round ~recover_round
  | _ -> invalid_arg (Printf.sprintf "--crash wants VICTIM:AT:REC, got %S" s)

(* "SRC:DST:HOLD" *)
let parse_delay s =
  match parse_ints ~what:"--delay-link" s with
  | [ src; dst; hold ] -> Fault.delay ~src ~dst ~hold
  | _ ->
      invalid_arg (Printf.sprintf "--delay-link wants SRC:DST:HOLD, got %S" s)

(* "FROM:HEAL:a,b/c,d" — islands are '/'-separated id groups; nodes not
   listed form the residual island. *)
let parse_partition s =
  match String.split_on_char ':' s with
  | [ from_s; heal_s; islands_s ] ->
      let int ~what s =
        match int_of_string_opt (String.trim s) with
        | Some i -> i
        | None -> invalid_arg (Printf.sprintf "bad %s in %S" what s)
      in
      let islands =
        String.split_on_char '/' islands_s
        |> List.map (fun grp ->
               String.split_on_char ',' grp
               |> List.filter (fun t -> String.trim t <> "")
               |> List.map (int ~what:"island node"))
      in
      Fault.partition ~from_round:(int ~what:"from-round" from_s)
        ~heal_round:(int ~what:"heal-round" heal_s)
        islands
  | _ ->
      invalid_arg
        (Printf.sprintf "--partition wants FROM:HEAL:a,b/c,d, got %S" s)

let fault_term =
  let drop =
    Arg.(
      value & opt float 0.
      & info [ "drop" ] ~docv:"P" ~doc:"Per-message drop probability.")
  in
  let duplicate =
    Arg.(
      value & opt float 0.
      & info [ "duplicate" ] ~docv:"P"
          ~doc:"Per-message duplication probability.")
  in
  let shuffle =
    Arg.(
      value & flag
      & info [ "shuffle" ]
          ~doc:"Randomize per-destination delivery order each round.")
  in
  let partitions =
    Arg.(
      value & opt_all string []
      & info [ "partition" ] ~docv:"FROM:HEAL:a,b/c,d"
          ~doc:
            "Cut the listed islands off from the rest during rounds \
             [FROM, HEAL); repeatable.  Unlisted nodes form the residual \
             island.")
  in
  let delays =
    Arg.(
      value & opt_all string []
      & info [ "delay-link" ] ~docv:"SRC:DST:HOLD"
          ~doc:"Hold messages on the SRC→DST link for HOLD rounds; repeatable.")
  in
  let crashes =
    Arg.(
      value & opt_all string []
      & info [ "crash" ] ~docv:"VICTIM:AT:REC"
          ~doc:
            "Crash node VICTIM at round AT (volatile protocol state lost, \
             durable CRDT state kept) and restart it at round REC; \
             repeatable.")
  in
  let seed =
    Arg.(
      value & opt int Fault.none.Fault.seed
      & info [ "fault-seed" ] ~docv:"SEED"
          ~doc:"Seed of the per-destination fault streams.")
  in
  let build drop duplicate shuffle partitions delays crashes seed =
    {
      Fault.drop;
      duplicate;
      shuffle;
      partitions = List.map parse_partition partitions;
      delays = List.map parse_delay delays;
      crashes = List.map parse_crash crashes;
      seed;
    }
  in
  Term.(
    const build $ drop $ duplicate $ shuffle $ partitions $ delays $ crashes
    $ seed)

(* Byte accounting shared by micro and retwis: exact framed wire sizes
   (what lib/wire puts on a socket) or the paper's estimate model. *)
let bytes_arg =
  Arg.(
    value
    & opt
        (enum
           [ ("exact", Metrics.Exact); ("estimate", Metrics.Estimate) ])
        Metrics.Exact
    & info [ "bytes" ] ~docv:"MODE"
        ~doc:
          "Byte accounting: $(b,exact) measures the exact framed wire size \
           of every delivered message; $(b,estimate) uses the paper's byte \
           model (node id = 20 B, int = 8 B).")

(* -- structured output (micro and serve) -------------------------------- *)

let trace_out_arg =
  Arg.(
    value & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:
          "Write the structured event trace (tick/send/recv/deliver/…) \
           as JSON lines to FILE.")

let metrics_out_arg =
  Arg.(
    value & opt (some string) None
    & info [ "metrics-out" ] ~docv:"FILE"
        ~doc:
          "Write a machine-readable JSON metrics summary to FILE; the \
           $(b,totals) object uses the same keys in micro and serve, so \
           simulated and socket runs are directly comparable.")

(* The shared totals schema, written from a run's tallies: the
   simulator's summary totals (micro) or one process's counters (serve). *)
let totals_json (c : Trace.counters) =
  Printf.sprintf
    {|{"messages":%d,"payload":%d,"metadata":%d,"payload_bytes":%d,"metadata_bytes":%d,"wire_bytes":%d,"ops_applied":%d,"sync_rounds":%d,"digest_bytes":%d}|}
    c.messages c.payload c.metadata c.payload_bytes c.metadata_bytes
    c.wire_bytes c.ops_applied c.sync_rounds c.digest_bytes

let write_file path content =
  let oc = open_out path in
  output_string oc content;
  close_out oc

(* Run [f] with an optional JSONL trace sink on [path]. *)
let with_trace_sink path f =
  match path with
  | None -> f None
  | Some path ->
      let oc = open_out path in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () -> f (Some (Trace.jsonl oc)))

(* -- micro -------------------------------------------------------------- *)

let print_outcomes ~accounting outcomes =
  let base = Metrics.total_transmission (Harness.baseline outcomes).summary in
  Printf.printf "byte accounting: %s\n"
    (Metrics.accounting_name accounting);
  Printf.printf "%-17s %14s %8s %14s %14s\n" "protocol" "tx (elements)"
    "ratio" "tx (bytes)" "avg mem (elt)";
  List.iter
    (fun (o : Harness.outcome) ->
      let tx = Metrics.total_transmission o.summary in
      let txb = Metrics.transmission_bytes ~accounting o.summary in
      Printf.printf "%-17s %14d %8.2f %14d %14.0f%s\n" o.protocol tx
        (float_of_int tx /. float_of_int base)
        txb o.full.Metrics.avg_memory_weight
        (if o.converged then "" else "  NOT CONVERGED"))
    outcomes

(* A run that fails to converge is a correctness red flag, not a footnote:
   banner it and make the process exit non-zero so scripts notice. *)
let convergence_verdict runs =
  let stragglers =
    List.filter_map
      (fun (name, converged) -> if converged then None else Some name)
      runs
  in
  match stragglers with
  | [] -> 0
  | names ->
      Printf.printf
        "\n*** NOT CONVERGED: %s — replicas still diverge after the \
         quiescence limit; results above are not comparable. ***\n"
        (String.concat ", " names);
      1

let report_skipped = function
  | [] -> ()
  | names ->
      Printf.printf "skipping (no declared fault tolerance): %s\n\n"
        (String.concat ", " names)

(* The micro metrics file: one totals object per protocol, over the full
   run including the convergence tail — the figure a lockstep socket
   cluster of the same workload reproduces. *)
let micro_metrics_json ~crdt ~topology ~nodes ~rounds outcomes =
  let results =
    List.map
      (fun (o : Harness.outcome) ->
        Printf.sprintf
          {|    {"protocol":"%s","converged":%b,"totals":%s}|}
          o.protocol o.converged
          (totals_json o.full.totals))
      outcomes
  in
  Printf.sprintf
    "{\"cmd\":\"micro\",\"crdt\":\"%s\",\"topology\":\"%s\",\"nodes\":%d,\"rounds\":%d,\"results\":[\n%s\n]}\n"
    crdt topology nodes rounds
    (String.concat ",\n" results)

let run_micro crdt topology nodes rounds k domains faults bytes trace_out
    metrics_out only_protocols =
  try
    validate_domains domains;
    let topo = Topology.of_name topology nodes in
    Printf.printf "%s on %s (%d nodes, %d rounds)\n\n" crdt topology nodes
      rounds;
    let module S = (val Registry.find_crdt crdt) in
    let module H = Harness.Make (S.C) in
    (* An explicit --protocol list names the lineup exactly (validated
       against the registry); otherwise the default lineup runs, and
       under an active fault plan the ack-mode δ-buffer joins it — the
       delta variant built for lossy channels.  Capability masking drops
       what the plan overwhelms. *)
    let lineup =
      match only_protocols with
      | [] when Fault.active faults ->
          "delta-bp+rr-ack" :: Harness.default_protocols
      | [] -> Harness.default_protocols
      | names -> names
    in
    let selection, skipped = H.mask_unsupported faults lineup in
    report_skipped skipped;
    let outcomes =
      with_trace_sink trace_out (fun sink ->
          (match sink with
          | Some (s : Trace.sink) ->
              s.Trace.meta
                (Printf.sprintf "micro crdt=%s topology=%s nodes=%d rounds=%d"
                   crdt topology nodes rounds)
          | None -> ());
          H.run ~selection ~faults ~domains ~bytes ?sink ~topology:topo
            ~rounds
            ~ops:(fun ~round ~node state ->
              S.micro_ops ~nodes ~k ~round ~node state)
            ())
    in
    print_outcomes ~accounting:bytes outcomes;
    (match metrics_out with
    | None -> ()
    | Some path ->
        write_file path
          (micro_metrics_json ~crdt ~topology ~nodes ~rounds outcomes));
    convergence_verdict
      (List.map
         (fun (o : Harness.outcome) -> (o.protocol, o.converged))
         outcomes)
  with Invalid_argument msg ->
    Printf.eprintf "error: %s\n" msg;
    2

let micro_cmd =
  let k =
    Arg.(
      value & opt int 100
      & info [ "k" ] ~docv:"K" ~doc:"GMap only: percentage of keys updated \
                                     globally per round.")
  in
  let only_protocols =
    Arg.(
      value & opt_all string []
      & info [ "protocol"; "p" ] ~docv:"PROTO"
          ~doc:
            (Printf.sprintf
               "Run only PROTO (repeatable); default is every registered \
                protocol but delta-bp+rr-ack, which joins under a fault \
                plan.  Known: %s."
               (String.concat ", " Registry.protocol_names)))
  in
  Cmd.v
    (Cmd.info "micro" ~doc:"Run a Table I micro-benchmark under every protocol")
    Term.(
      const run_micro $ crdt_arg $ topology_arg $ nodes_arg $ rounds_arg $ k
      $ domains_arg $ fault_term $ bytes_arg $ trace_out_arg
      $ metrics_out_arg $ only_protocols)

(* -- retwis ------------------------------------------------------------- *)

let run_retwis zipf users topology nodes rounds domains faults bytes =
  try
    validate_domains domains;
    let topo = Topology.of_name topology nodes in
    Printf.printf
      "retwis: %d users, zipf %.2f, %s topology (%d nodes), %d rounds\n\
       byte accounting: %s\n\n"
      users zipf topology nodes rounds
      (Metrics.accounting_name bytes);
    let module Classic =
      Crdt_retwis.Sharded_store.Delta (Crdt_proto.Delta_sync.Classic_config) in
    let module BpRr =
      Crdt_retwis.Sharded_store.Delta (Crdt_proto.Delta_sync.Bp_rr_config) in
    let module Rc = Runner.Make (Classic) in
    let module Rb = Runner.Make (BpRr) in
    let wl () = Crdt_retwis.Workload.make ~seed:31 ~users ~coefficient:zipf in
    let w1 = wl () in
    let rc =
      Rc.run ~faults ~domains ~bytes ~equal:Classic.equal_states
        ~topology:topo ~rounds
        ~ops:(fun ~round ~node state ->
          Crdt_retwis.Workload.ops_sharded w1 ~round ~node state)
        ()
    in
    let w2 = wl () in
    let rb =
      Rb.run ~faults ~domains ~bytes ~equal:BpRr.equal_states ~topology:topo
        ~rounds
        ~ops:(fun ~round ~node state ->
          Crdt_retwis.Workload.ops_sharded w2 ~round ~node state)
        ()
    in
    let row name (s : Metrics.summary) converged =
      Printf.printf "%-14s tx=%9d bytes   mem/node=%9.0f bytes%s\n"
        name
        (Metrics.transmission_bytes ~accounting:bytes s)
        (s.Metrics.avg_memory_bytes /. float_of_int nodes)
        (if converged then "" else "  NOT CONVERGED")
    in
    row "delta-classic" (Rc.summary rc) rc.Rc.converged;
    row "delta-bp+rr" (Rb.summary rb) rb.Rb.converged;
    convergence_verdict
      [ ("delta-classic", rc.Rc.converged); ("delta-bp+rr", rb.Rb.converged) ]
  with Invalid_argument msg ->
    Printf.eprintf "error: %s\n" msg;
    2

let retwis_cmd =
  let zipf =
    Arg.(
      value & opt float 1.0
      & info [ "zipf"; "z" ] ~docv:"S" ~doc:"Zipf contention coefficient.")
  in
  let users =
    Arg.(
      value & opt int 1000
      & info [ "users"; "u" ] ~docv:"U" ~doc:"Number of Retwis users.")
  in
  Cmd.v
    (Cmd.info "retwis"
       ~doc:"Run the Retwis application benchmark (classic vs BP+RR)")
    Term.(
      const run_retwis $ zipf $ users $ topology_arg $ nodes_arg $ rounds_arg
      $ domains_arg $ fault_term $ bytes_arg)

(* -- serve -------------------------------------------------------------- *)

(* One live replica over real sockets (lib/net): listens on --listen,
   dials every --peer, applies --ops deterministic operations (one per
   tick), synchronizes under the selected protocol, and exits once all
   replicas agree they are done.  --state-out writes the hex-encoded
   canonical final state so an external check can compare replicas;
   --metrics-out writes this process's totals (same schema as micro). *)

let to_hex s =
  let buf = Buffer.create (2 * String.length s) in
  String.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%02x" (Char.code c))) s;
  Buffer.contents buf

(* "ID=ADDR" *)
let parse_peer s =
  match String.index_opt s '=' with
  | Some i -> (
      let id = String.sub s 0 i in
      let addr = String.sub s (i + 1) (String.length s - i - 1) in
      match int_of_string_opt id with
      | Some id -> (id, Crdt_net.Addr.parse_exn addr)
      | None -> invalid_arg (Printf.sprintf "--peer wants ID=ADDR, got %S" s))
  | None -> invalid_arg (Printf.sprintf "--peer wants ID=ADDR, got %S" s)

let run_serve id listen peers crdt protocol ops_ticks tick_ms quiet_ticks
    max_ticks lockstep data_dir checkpoint_every fsync state_out metrics_out
    trace_out verbose =
  try
    let module S = (val Registry.find_crdt crdt) in
    let module Protocols = Registry.For (S.C) in
    let module P = (val Protocols.find protocol) in
    let module R = Crdt_net.Runtime.Make (P) in
    let listen = Crdt_net.Addr.parse_exn listen in
    let peers = List.map parse_peer peers in
    let fsync =
      match Crdt_store.Store.fsync_policy_of_string fsync with
      | Ok p -> p
      | Error m -> invalid_arg m
    in
    let module Image = Crdt_store.Store.Image (S.C) in
    (* Durable storage: open (and recover) the segment log before the
       runtime starts, so boot state and recovery stats exist up
       front.  The store holds only CRDT bytes, so the protocol must
       declare it can restart from a CRDT-state-only image. *)
    let durable =
      match data_dir with
      | None -> None
      | Some dir ->
          if not P.capabilities.Crdt_proto.Protocol_intf.durable_restart then
            invalid_arg
              (Printf.sprintf
                 "%s does not support --data-dir: restarting from a \
                  CRDT-state-only durable image is outside its declared \
                  capabilities"
                 P.protocol_name);
          let t0 = Unix.gettimeofday () in
          let store, recovered = Crdt_store.Store.open_ ~fsync ~dir () in
          let boot = Image.recover ~dir recovered in
          let recovery_s = Unix.gettimeofday () -. t0 in
          Some (store, recovered, boot, recovery_s)
    in
    let cfg =
      {
        (Crdt_net.Runtime.default_config ~id ~listen ~peers
           ~total:(1 + List.length peers))
        with
        ops_ticks;
        tick_ms;
        quiet_ticks;
        max_ticks;
        lockstep;
        verbose;
      }
    in
    let digest state =
      Digest.string (Crdt_wire.Codec.encode_to_string S.C.codec state)
    in
    (* Boot only when the directory held anything — a fresh data dir
       must not arm the recovery exchange of a first-boot replica. *)
    let boot, persist =
      match durable with
      | None -> (None, None)
      | Some (store, recovered, boot_state, _) ->
          let boot =
            if recovered.Crdt_store.Store.segments > 0 then Some boot_state
            else None
          in
          (boot, Some (Image.persister store ~checkpoint_every boot_state))
    in
    let res =
      with_trace_sink trace_out (fun sink ->
          (match sink with
          | Some (s : Trace.sink) ->
              s.Trace.meta
                (Printf.sprintf "serve node=%d crdt=%s protocol=%s lockstep=%b"
                   id crdt protocol lockstep)
          | None -> ());
          R.serve ?sink ?persist ?boot ~equal:S.C.equal ~digest cfg
            ~ops:(fun ~tick state -> S.serve_ops ~id ~tick state))
    in
    (match durable with
    | Some (store, _, _, _) -> Crdt_store.Store.close store
    | None -> ());
    let final = res.R.state in
    Printf.printf "node %d: final state weight=%d bytes=%d (%s, %d ticks)\n"
      id (S.C.weight final) (S.C.byte_size final) P.protocol_name res.R.ticks;
    (match state_out with
    | None -> ()
    | Some path ->
        let encoded = Crdt_wire.Codec.encode_to_string S.C.codec final in
        write_file path (to_hex encoded ^ "\n"));
    (match metrics_out with
    | None -> ()
    | Some path ->
        let recovery_json =
          match durable with
          | None -> ""
          | Some (_, r, _, recovery_s) ->
              Printf.sprintf
                ",\"recovery\":{\"wall_s\":%.6f,\"checkpoint_bytes\":%d,\"replayed_records\":%d,\"replayed_bytes\":%d,\"truncated_bytes\":%d,\"segments\":%d}"
                recovery_s r.Crdt_store.Store.checkpoint_bytes
                r.Crdt_store.Store.replayed_records
                r.Crdt_store.Store.replayed_bytes
                r.Crdt_store.Store.truncated_bytes
                r.Crdt_store.Store.segments
        in
        write_file path
          (Printf.sprintf
             "{\"cmd\":\"serve\",\"crdt\":\"%s\",\"protocol\":\"%s\",\"node\":%d,\"ticks\":%d,\"clean\":%b,\"exit_reason\":\"%s\",\"writes\":%d,\"wall_s\":%.6f,\"tick_p99_us\":%.1f,\"evloop\":\"%s\"%s,\"totals\":%s}\n"
             crdt protocol id res.R.ticks res.R.clean
             (Crdt_net.Runtime.stop_reason_name res.R.stop)
             res.R.writes res.R.wall_s res.R.tick_p99_us res.R.backend
             recovery_json (totals_json res.R.counters)));
    if res.R.clean then 0 else 1
  with
  | Invalid_argument msg | Failure msg | Crdt_store.Store.Corrupt msg ->
      Printf.eprintf "error: %s\n" msg;
      2
  | Unix.Unix_error (e, fn, arg) ->
      Printf.eprintf "error: %s (%s %s)\n" (Unix.error_message e) fn arg;
      2

let serve_cmd =
  let id =
    Arg.(
      required & opt (some int) None
      & info [ "id" ] ~docv:"ID" ~doc:"This replica's node id.")
  in
  let listen =
    Arg.(
      required & opt (some string) None
      & info [ "listen" ] ~docv:"ADDR"
          ~doc:"Listen address: HOST:PORT or unix:PATH.")
  in
  let peers =
    Arg.(
      value & opt_all string []
      & info [ "peer" ] ~docv:"ID=ADDR"
          ~doc:"A peer replica's id and listen address; repeatable.")
  in
  let protocol =
    Arg.(
      value & opt string "delta-bp+rr"
      & info [ "protocol"; "p" ] ~docv:"PROTO"
          ~doc:
            (Printf.sprintf "Synchronization protocol: %s."
               (String.concat ", " Registry.protocol_names)))
  in
  let ops =
    Arg.(
      value & opt int 10
      & info [ "ops" ] ~docv:"N"
          ~doc:"Apply one deterministic operation per tick for N ticks.")
  in
  let tick_ms =
    Arg.(
      value & opt int 20
      & info [ "tick-ms" ] ~docv:"MS"
          ~doc:"Synchronization interval in milliseconds.")
  in
  let quiet_ticks =
    Arg.(
      value & opt int 5
      & info [ "quiet-ticks" ] ~docv:"K"
          ~doc:
            "Consecutive ticks without local progress (ops pending or \
             state changes) before announcing completion to peers.")
  in
  let max_ticks =
    Arg.(
      value & opt int 5000
      & info [ "max-ticks" ] ~docv:"T" ~doc:"Hard bound on the run length.")
  in
  let lockstep =
    Arg.(
      value & flag
      & info [ "lockstep" ]
          ~doc:
            "Round-barrier mode: ticks advance when every peer's round \
             marker arrives (instead of on a timer), the cluster stops on \
             state-digest unanimity, and the round structure matches the \
             simulator's exactly.")
  in
  let data_dir =
    Arg.(
      value & opt (some string) None
      & info [ "data-dir" ] ~docv:"DIR"
          ~doc:
            "Durable storage directory (append-only delta log + \
             checkpoints, lib/store).  On start the replica recovers \
             checkpoint ⊔ logged deltas from DIR and runs the protocol's \
             restart exchange; every tick's state change is appended as a \
             wire-encoded delta.  Survives kill -9.")
  in
  let checkpoint_every =
    Arg.(
      value & opt int 64
      & info [ "checkpoint-every" ] ~docv:"N"
          ~doc:
            "Write a full-state checkpoint (pruning older segments) after \
             N appended deltas; 0 disables checkpoints.")
  in
  let fsync =
    Arg.(
      value & opt string "interval"
      & info [ "fsync" ] ~docv:"POLICY"
          ~doc:
            "Log durability policy: always (fsync every append), interval \
             or interval:SECONDS (group commit, default 50ms), never \
             (leave flushing to the OS).  Checkpoints always fsync.")
  in
  let state_out =
    Arg.(
      value & opt (some string) None
      & info [ "state-out" ] ~docv:"FILE"
          ~doc:"Write the hex-encoded final state to FILE on exit.")
  in
  let verbose =
    Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Log runtime events.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run one live replica over real sockets (lib/net runtime)")
    Term.(
      const run_serve $ id $ listen $ peers $ crdt_arg $ protocol $ ops $ tick_ms
      $ quiet_ticks $ max_ticks $ lockstep $ data_dir $ checkpoint_every
      $ fsync $ state_out $ metrics_out_arg $ trace_out_arg $ verbose)

(* -- topo --------------------------------------------------------------- *)

let run_topo topology nodes =
  try
    let t = Topology.of_name topology nodes in
    Format.printf "%a@." Topology.pp t;
    Printf.printf "acyclic: %b\n" (Topology.is_acyclic t);
    List.iter
      (fun i ->
        Printf.printf "  node %2d: neighbors %s\n" i
          (String.concat ", "
             (List.map string_of_int (Topology.neighbors t i))))
      (List.init (Topology.size t) Fun.id);
    0
  with Invalid_argument msg ->
    Printf.eprintf "error: %s\n" msg;
    2

let topo_cmd =
  Cmd.v
    (Cmd.info "topo" ~doc:"Describe a topology")
    Term.(const run_topo $ topology_arg $ nodes_arg)

(* -- check -------------------------------------------------------------- *)

let run_check proto crdt replicas ops_per rounds max_faults flush walks
    walk_len seed durable replay =
  let module Cells = Crdt_check.Cells in
  let module Checker = Crdt_check.Checker in
  let checker_cfg =
    {
      Checker.default_config with
      replicas;
      script_len = ops_per;
      flush_rounds = flush;
      durable;
    }
  in
  try
    match replay with
    | Some schedule -> begin
        let proto =
          match proto with
          | Some p -> p
          | None -> invalid_arg "--replay needs --protocol"
        and crdt =
          match crdt with
          | Some c -> c
          | None -> invalid_arg "--replay needs --crdt"
        in
        match Cells.replay checker_cfg ~proto ~crdt ~schedule with
        | None ->
            Printf.printf "%s x %s: replay ok (no violation)\n" proto crdt;
            0
        | Some v ->
            Printf.printf "%s x %s: replay violates %s at step %d\n  %s\n"
              proto crdt v.invariant v.at_step v.detail;
            1
      end
    | None ->
        let cfg =
          {
            Cells.checker = checker_cfg;
            rounds;
            max_faults;
            seed;
            walks;
            walk_len;
          }
        in
        let targets =
          Cells.cells ()
          |> List.filter (fun (p, c) ->
                 (match proto with Some p' -> p = p' | None -> true)
                 && match crdt with Some c' -> c = c' | None -> true)
        in
        if targets = [] then invalid_arg "no matching protocol x crdt cells";
        let violations = ref 0 in
        List.iter
          (fun (p, c) ->
            let r = Cells.check_cell cfg ~proto:p ~crdt:c in
            match r.failure with
            | None ->
                Printf.printf "%-16s x %-12s ok (%d schedules, %d walks)\n" p
                  c r.exhaustive r.walks
            | Some f ->
                incr violations;
                Printf.printf
                  "%-16s x %-12s VIOLATION %s\n\
                  \  %s\n\
                  \  schedule: %s\n\
                  \  shrunk:   %s\n\
                  \  replay:   crdtsync check --protocol %s --crdt %s \
                   --replay '%s'\n"
                  p c f.invariant f.detail f.schedule f.shrunk p c f.shrunk)
          targets;
        if !violations = 0 then 0 else 1
  with Invalid_argument msg ->
    Printf.eprintf "error: %s\n" msg;
    2

let check_cmd =
  let proto =
    Arg.(
      value
      & opt (some string) None
      & info [ "protocol"; "p" ] ~docv:"NAME"
          ~doc:"Check only this protocol (default: all registered).")
  in
  let crdt =
    Arg.(
      value
      & opt (some string) None
      & info [ "crdt"; "c" ] ~docv:"NAME"
          ~doc:"Check only this CRDT (default: all registered).")
  in
  let replicas =
    Arg.(
      value & opt int 2
      & info [ "replicas" ] ~docv:"N"
          ~doc:"Replica group size for the exhaustive tier (default 2).")
  in
  let ops_per =
    Arg.(
      value & opt int 4
      & info [ "ops" ] ~docv:"N"
          ~doc:"Scripted operations per replica (default 4).")
  in
  let rounds =
    Arg.(
      value & opt int 3
      & info [ "rounds" ] ~docv:"R"
          ~doc:"Rounds per exhaustive schedule (default 3).")
  in
  let max_faults =
    Arg.(
      value & opt int 2
      & info [ "max-faults" ] ~docv:"F"
          ~doc:"Non-deliver fate budget per exhaustive schedule (default 2).")
  in
  let flush =
    Arg.(
      value & opt int 48
      & info [ "flush-rounds" ] ~docv:"R"
          ~doc:"Fault-free rounds allowed for convergence (default 48).")
  in
  let walks =
    Arg.(
      value & opt int 64
      & info [ "walks" ] ~docv:"N"
          ~doc:"Random walks per cell, 0 to disable (default 64).")
  in
  let walk_len =
    Arg.(
      value & opt int 80
      & info [ "walk-len" ] ~docv:"N"
          ~doc:"Atomic steps per random walk (default 80).")
  in
  let seed =
    Arg.(
      value & opt int 42
      & info [ "seed" ] ~docv:"S" ~doc:"Base seed for the random tier.")
  in
  let durable =
    Arg.(
      value & flag
      & info [ "durable" ]
          ~doc:
            "Model crash/recover as kill -9 plus restart-from-disk: replicas \
             persist through the driver's store seam, a crash checks the \
             durable image is a lattice prefix of the pre-crash state, and \
             recovery reloads from that image (losing volatile state) \
             instead of resuming in memory.  Protocols that cannot restart \
             from a CRDT-state-only image keep the in-memory model.")
  in
  let replay =
    Arg.(
      value
      & opt (some string) None
      & info [ "replay" ] ~docv:"SCHEDULE"
          ~doc:
            "Replay one schedule (as printed by a violation report) against \
             the cell named by --protocol/--crdt instead of exploring.")
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Model-check SEC invariants over protocol x CRDT cells (exhaustive \
          small-scope schedules + seeded random walks)")
    Term.(
      const run_check $ proto $ crdt $ replicas $ ops_per $ rounds
      $ max_faults $ flush $ walks $ walk_len $ seed $ durable $ replay)

let () =
  let doc = "Efficient synchronization of state-based CRDTs — experiments" in
  exit
    (Cmd.eval'
       (Cmd.group (Cmd.info "crdtsync" ~version:"1.0.0" ~doc)
          [
            micro_cmd;
            retwis_cmd;
            serve_cmd;
            topo_cmd;
            check_cmd;
          ]))
