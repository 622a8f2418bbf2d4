(* Recovery cost as a function of log size and checkpoint interval.

   A writer replica applies a known op stream and persists through the
   driver's store seam with [Store.Image]'s persister, the sink
   `crdtsync serve --data-dir` installs: one structural delta per
   durability point, a full-state checkpoint every [checkpoint_every]
   deltas (0 = never).  The measured phase is the restart: reopen the
   segment log, [Store.Image.recover] checkpoint ⊔ replayed deltas, and
   rebuild a protocol node from the image with [P.load] — the same
   calls `serve` makes before its first tick.

   The sweep records recovery wall time, replayed records/bytes and
   checkpoint bytes per (crdt × protocol × log size × interval) cell,
   for gset and gmap under delta-bp+rr and conflict-sync.  It fails
   unless every recovered state equals the writer's final state, every
   checkpointed cell replays at most one checkpoint interval of deltas,
   and checkpointing never replays more bytes than the
   no-checkpoint baseline at the same log size.  With --json the table
   lands in BENCH_recovery_time.json. *)

open Crdt_core
module Registry = Crdt_engine.Registry
module Store = Crdt_store.Store

type row = {
  crdt : string;
  protocol : string;
  ops : int;  (** durability points = delta records written. *)
  checkpoint_every : int;  (** 0 = checkpointing disabled. *)
  log_bytes : int;  (** total bytes appended by the writer. *)
  segments : int;  (** segments scanned at recovery. *)
  checkpoint_bytes : int;
  replayed_records : int;
  replayed_bytes : int;
  recovery_ms : float;  (** reopen + decode + join + P.load. *)
  recovered_ok : bool;  (** recovered state = writer's final state. *)
}

(* Small segments so multi-segment logs (and their seal/scan path) are
   part of what the restart pays for, even at quick scale. *)
let segment_bytes = 64 * 1024

let dir_seq = ref 0

let fresh_dir () =
  incr dir_seq;
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "crdtsync-recovery-%d-%d" (Unix.getpid ()) !dir_seq)

let remove_dir dir =
  if Sys.file_exists dir then begin
    Array.iter
      (fun f -> Sys.remove (Filename.concat dir f))
      (Sys.readdir dir);
    Unix.rmdir dir
  end

module Cell (C : Crdt_proto.Protocol_intf.CRDT) = struct
  module Protocols = Registry.For (C)

  module Image = Store.Image (C)

  let measure (module P : Protocols.S) ~crdt ~ops ~checkpoint_every ~op_of_i =
    let module D = Crdt_engine.Driver.Make (P) in
    let dir = fresh_dir () in
    remove_dir dir;
    Fun.protect
      ~finally:(fun () -> remove_dir dir)
      (fun () ->
        (* -- populate: the serve persist sink, op by op ---------------- *)
        let store, _ = Store.open_ ~segment_bytes ~fsync:Store.Never ~dir () in
        let d = D.create ~id:0 ~neighbors:[ 1 ] ~total:2 () in
        D.set_persist d (Image.persister store ~checkpoint_every C.bottom);
        for i = 0 to ops - 1 do
          ignore (D.apply d [ op_of_i i ]);
          D.sync_store d
        done;
        let final = D.state d in
        let log_bytes = Store.appended_bytes store in
        Store.close store;
        (* -- measure: reopen, rebuild the image, load a fresh node ----- *)
        let t0 = Unix.gettimeofday () in
        let store, recovered = Store.open_ ~segment_bytes ~dir () in
        let image = Image.recover ~dir recovered in
        let node = P.load (P.init ~id:0 ~neighbors:[ 1 ] ~total:2) image in
        let recovery_ms = (Unix.gettimeofday () -. t0) *. 1000. in
        Store.close store;
        {
          crdt;
          protocol = P.protocol_name;
          ops;
          checkpoint_every;
          log_bytes;
          segments = recovered.Store.segments;
          checkpoint_bytes = recovered.Store.checkpoint_bytes;
          replayed_records = recovered.Store.replayed_records;
          replayed_bytes = recovered.Store.replayed_bytes;
          recovery_ms;
          recovered_ok = C.equal (P.state node) final;
        })
end

module C_gset = Cell (Gset.Of_int)
module C_gmap = Cell (Gmap.Versioned)

let protocols = [ "delta-bp+rr"; "conflict-sync" ]

(* Full-width identifiers, same rationale as divergence_sweep: dense
   small ints would make every delta record a few bytes and replay
   artificially cheap. *)
let ident i = ((i * 0x2545F4914F6CDD1D) + 0x123456789ABCDEF) land max_int

let gset_row ~ops ~checkpoint_every protocol =
  C_gset.measure (C_gset.Protocols.find protocol) ~crdt:"gset" ~ops
    ~checkpoint_every ~op_of_i:ident

let gmap_row ~ops ~checkpoint_every protocol =
  C_gmap.measure (C_gmap.Protocols.find protocol) ~crdt:"gmap" ~ops
    ~checkpoint_every ~op_of_i:(fun i -> Gmap.Versioned.Apply (ident i, Version.Bump))

let sweep ~sizes ~intervals =
  List.concat_map
    (fun ops ->
      List.concat_map
        (fun checkpoint_every ->
          List.map (gset_row ~ops ~checkpoint_every) protocols
          @ List.map (gmap_row ~ops ~checkpoint_every) protocols)
        intervals)
    sizes

(* -- assertions ---------------------------------------------------------- *)

let check_recovered rows =
  List.filter_map
    (fun r ->
      if r.recovered_ok then None
      else
        Some
          (Printf.sprintf
             "%s/%s ops=%d ckpt=%d: recovered state differs from writer's"
             r.crdt r.protocol r.ops r.checkpoint_every))
    rows

(* The headline bound: a checkpointed restart replays at most one
   checkpoint interval of deltas, however long the log grew. *)
let check_bounded_replay rows =
  List.filter_map
    (fun r ->
      if r.checkpoint_every = 0 || r.replayed_records <= r.checkpoint_every
      then None
      else
        Some
          (Printf.sprintf
             "%s/%s ops=%d: replayed %d records > checkpoint interval %d"
             r.crdt r.protocol r.ops r.replayed_records r.checkpoint_every))
    rows

let check_vs_baseline rows =
  List.filter_map
    (fun r ->
      if r.checkpoint_every = 0 then None
      else
        let baseline =
          List.find
            (fun b ->
              b.crdt = r.crdt && b.protocol = r.protocol && b.ops = r.ops
              && b.checkpoint_every = 0)
            rows
        in
        if r.replayed_bytes <= baseline.replayed_bytes then None
        else
          Some
            (Printf.sprintf
               "%s/%s ops=%d ckpt=%d: replayed %d B > no-checkpoint \
                baseline %d B"
               r.crdt r.protocol r.ops r.checkpoint_every r.replayed_bytes
               baseline.replayed_bytes))
    rows

(* -- reporting ----------------------------------------------------------- *)

let print_rows rows =
  Report.table
    ~header:
      [
        "crdt"; "protocol"; "ops"; "ckpt"; "log B"; "segs"; "ckpt B";
        "replay recs"; "replay B"; "recovery ms";
      ]
    (List.map
       (fun r ->
         [
           r.crdt;
           r.protocol;
           string_of_int r.ops;
           (if r.checkpoint_every = 0 then "off"
            else string_of_int r.checkpoint_every);
           string_of_int r.log_bytes;
           string_of_int r.segments;
           string_of_int r.checkpoint_bytes;
           string_of_int r.replayed_records;
           string_of_int r.replayed_bytes;
           Printf.sprintf "%.2f%s" r.recovery_ms
             (if r.recovered_ok then "" else "!");
         ])
       rows)

let write_json path ~scale rows =
  let oc = open_out path in
  let out fmt = Printf.fprintf oc fmt in
  out "{\n  \"bench\": \"recovery_time\",\n  \"schema\": 1,\n";
  out "  \"host\": %s,\n" (Report.host_json ());
  out "  \"scale\": %S,\n" scale;
  out "  \"segment_bytes\": %d,\n" segment_bytes;
  out
    "  \"accounting\": \"restart = reopen segment log + decode checkpoint \
     and deltas + join + P.load; wall-clock ms\",\n";
  out "  \"sweep\": [\n";
  List.iteri
    (fun i r ->
      out
        "    {\"crdt\": %S, \"protocol\": %S, \"ops\": %d, \
         \"checkpoint_every\": %d,\n\
        \     \"log_bytes\": %d, \"segments\": %d, \"checkpoint_bytes\": %d, \
         \"replayed_records\": %d, \"replayed_bytes\": %d, \"recovery_ms\": \
         %.3f, \"recovered_ok\": %b}%s\n"
        r.crdt r.protocol r.ops r.checkpoint_every r.log_bytes r.segments
        r.checkpoint_bytes r.replayed_records r.replayed_bytes r.recovery_ms
        r.recovered_ok
        (if i = List.length rows - 1 then "" else ","))
    rows;
  out "  ]\n}\n";
  close_out oc;
  Report.note "wrote %s" path

let run ?(quick = false) ?json_path () =
  let sizes = if quick then [ 1_000; 4_000 ] else [ 1_000; 4_000; 16_000 ] in
  let intervals = if quick then [ 0; 64 ] else [ 0; 16; 64; 512 ] in
  Report.section "recovery_time"
    "restart cost vs log size and checkpoint interval (lib/store)";
  let rows = sweep ~sizes ~intervals in
  print_rows rows;
  (match json_path with
  | None -> ()
  | Some path ->
      write_json path ~scale:(if quick then "quick" else "default") rows);
  let violations =
    check_recovered rows @ check_bounded_replay rows @ check_vs_baseline rows
  in
  match violations with
  | [] ->
      Report.note
        "all recovered states byte-equal to the writer; checkpointed \
         restarts replay <= one interval of deltas"
  | vs ->
      List.iter (fun v -> Report.note "VIOLATION: %s" v) vs;
      failwith "recovery_time: recovery claims violated"
