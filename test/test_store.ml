(* Unit suite for the lib/store segment log (DESIGN.md §11).

   The store treats record bodies as opaque bytes, so the suite drives
   it with plain strings and checks the format contract directly:

   - roundtrip: append / roll / close / reopen preserves every delta in
     order, across multiple segments and writer generations;
   - checkpoint: a checkpoint resets the replay set and prunes every
     older segment; records appended after it are replayed on top;
   - torn tail: truncating the final record at every byte offset, and
     flipping every bit of it, never raises and never loses any record
     before it — recovery yields an exact prefix of what was written;
   - crash during checkpoint: a checkpoint record torn mid-write leaves
     the previous checkpoint and the deltas after it fully recoverable;
   - corruption in a sealed (non-final) segment is refused loudly
     ({!Store.Corrupt}), never silently skipped;
   - the on-disk bytes are pinned: a golden checkpoint + delta + seal
     segment reads back to the same recovery, and the writer still
     produces it byte for byte;
   - a scan is one linear pass: reading a default-size segment of
     20 000 records allocates a bounded number of bytes per log byte
     (a reader that re-copies the unread rest per record allocates
     thousands);
   - image policy: {!Store.Image} over a real lattice persists Δ
     against the last image, checkpoints every N deltas, recovers
     exactly the last persisted state, and refuses a record that does
     not decode. *)

module Store = Crdt_store.Store

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_deltas = Alcotest.(check (list string))

(* -- scratch directories ------------------------------------------------- *)

let dir_seq = ref 0

let fresh_dir () =
  incr dir_seq;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "crdtsync-test-store-%d-%d" (Unix.getpid ()) !dir_seq)
  in
  dir

let remove_dir dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Unix.rmdir dir
  end

let with_dir f =
  let dir = fresh_dir () in
  remove_dir dir;
  Fun.protect ~finally:(fun () -> remove_dir dir) (fun () -> f dir)

let segment_files dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".log")
  |> List.sort compare

let file_size path = (Unix.stat path).Unix.st_size

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let body i = Printf.sprintf "delta-%04d-%s" i (String.make (i mod 7) 'x')

(* -- roundtrip ----------------------------------------------------------- *)

let test_roundtrip () =
  with_dir (fun dir ->
      let n = 40 in
      let written = List.init n body in
      (* Tiny segments force several rolls. *)
      let store, r0 = Store.open_ ~segment_bytes:256 ~dir () in
      check_int "fresh dir has no segments" 0 r0.Store.segments;
      check "fresh dir has no checkpoint" true (r0.Store.checkpoint = None);
      List.iter (Store.append_delta store) written;
      Store.close store;
      check "log rolled into several segments" true
        (List.length (segment_files dir) > 1);
      let r = Store.read ~dir in
      check_deltas "all deltas recovered in order" written r.Store.deltas;
      check_int "replayed_records counts them" n r.Store.replayed_records;
      check_int "replayed_bytes sums the bodies"
        (List.fold_left (fun a d -> a + String.length d) 0 written)
        r.Store.replayed_bytes;
      check_int "nothing truncated" 0 r.Store.truncated_bytes;
      (* A second writer generation appends on top. *)
      let store, r1 = Store.open_ ~segment_bytes:256 ~dir () in
      check_deltas "reopen recovers the same" written r1.Store.deltas;
      check_int "since_checkpoint resumes from the replay set" n
        (Store.deltas_since_checkpoint store);
      Store.append_delta store "tail";
      Store.close store;
      let r = Store.read ~dir in
      check_deltas "append after reopen lands at the end"
        (written @ [ "tail" ])
        r.Store.deltas)

(* -- checkpoint and pruning ---------------------------------------------- *)

let test_checkpoint_prunes () =
  with_dir (fun dir ->
      let store, _ = Store.open_ ~segment_bytes:256 ~dir () in
      List.iter (Store.append_delta store) (List.init 40 body);
      check "several segments before the checkpoint" true
        (List.length (segment_files dir) > 1);
      Store.checkpoint store "STATE";
      check_int "checkpoint prunes all older segments" 1
        (List.length (segment_files dir));
      check_int "checkpoint resets the delta counter" 0
        (Store.deltas_since_checkpoint store);
      Store.append_delta store "after-1";
      Store.append_delta store "after-2";
      Store.close store;
      let r = Store.read ~dir in
      check "checkpoint recovered" true (r.Store.checkpoint = Some "STATE");
      check_deltas "only post-checkpoint deltas replay"
        [ "after-1"; "after-2" ]
        r.Store.deltas;
      check_int "replayed_records ignores checkpointed history" 2
        r.Store.replayed_records)

(* -- torn-tail fuzz ------------------------------------------------------ *)

(* A log of [n] records in one segment, returning the final segment's
   path, its size with and without the last record, and the first n-1
   bodies. *)
let build_tail_log dir n =
  let store, _ = Store.open_ ~dir () in
  let all = List.init n body in
  let rec go = function
    | [] -> assert false
    | [ last ] ->
        let path = Filename.concat dir (List.hd (segment_files dir)) in
        let before = file_size path in
        Store.append_delta store last;
        Store.close store;
        (path, before, file_size path)
    | d :: rest ->
        Store.append_delta store d;
        go rest
  in
  let path, before, after = go all in
  (path, before, after, List.filteri (fun i _ -> i < n - 1) all, all)

let test_torn_truncation () =
  with_dir (fun dir ->
      let path, before, after, prefix, _ = build_tail_log dir 6 in
      let full = read_file path in
      for cut = before to after - 1 do
        write_file path (String.sub full 0 cut);
        let r = Store.read ~dir in
        check_deltas
          (Printf.sprintf "truncation at %d keeps the prefix" cut)
          prefix r.Store.deltas;
        check_int
          (Printf.sprintf "truncation at %d counts the torn bytes" cut)
          (cut - before) r.Store.truncated_bytes
      done;
      (* A writer reopened over a torn tail drops it physically and
         appends cleanly. *)
      write_file path (String.sub full 0 (before + 3));
      let store, r = Store.open_ ~dir () in
      check_deltas "reopen over torn tail keeps the prefix" prefix
        r.Store.deltas;
      check_int "reopen truncates the file back" before (file_size path);
      Store.append_delta store "fresh";
      Store.close store;
      check_deltas "append over the healed tail"
        (prefix @ [ "fresh" ])
        (Store.read ~dir).Store.deltas)

let test_torn_bitflips () =
  with_dir (fun dir ->
      let path, before, after, prefix, all = build_tail_log dir 6 in
      let full = read_file path in
      for off = before to after - 1 do
        for bit = 0 to 7 do
          let damaged = Bytes.of_string full in
          Bytes.set damaged off
            (Char.chr (Char.code full.[off] lxor (1 lsl bit)));
          write_file path (Bytes.to_string damaged);
          let r = Store.read ~dir in
          (* The flip may or may not kill the final record, but it must
             never raise, never invent a record, and never damage any
             record before it. *)
          let ok =
            r.Store.checkpoint = None
            && (r.Store.deltas = prefix || r.Store.deltas = all)
          in
          check
            (Printf.sprintf "bit %d at offset %d recovers a clean prefix" bit
               off)
            true ok
        done
      done)

(* -- crash during checkpoint --------------------------------------------- *)

let test_torn_checkpoint () =
  with_dir (fun dir ->
      let store, _ = Store.open_ ~dir () in
      List.iter (Store.append_delta store) [ "d1"; "d2" ];
      Store.checkpoint store "CKPT-A";
      List.iter (Store.append_delta store) [ "d3"; "d4" ];
      let path = Filename.concat dir (List.hd (segment_files dir)) in
      let before = file_size path in
      Store.checkpoint store "CKPT-B";
      Store.close store;
      let full = read_file path in
      (* Tear the CKPT-B record at every byte offset: recovery must fall
         back to CKPT-A plus the deltas after it. *)
      for cut = before to String.length full - 1 do
        write_file path (String.sub full 0 cut);
        let r = Store.read ~dir in
        check
          (Printf.sprintf "cut at %d falls back to the previous checkpoint"
             cut)
          true
          (r.Store.checkpoint = Some "CKPT-A");
        check_deltas
          (Printf.sprintf "cut at %d keeps the post-A deltas" cut)
          [ "d3"; "d4" ] r.Store.deltas
      done;
      (* The intact file promotes to CKPT-B with nothing to replay. *)
      write_file path full;
      let r = Store.read ~dir in
      check "intact file recovers the new checkpoint" true
        (r.Store.checkpoint = Some "CKPT-B");
      check_deltas "new checkpoint resets the replay set" [] r.Store.deltas)

(* -- corruption outside the final segment -------------------------------- *)

let test_corrupt_sealed_segment () =
  with_dir (fun dir ->
      let store, _ = Store.open_ ~segment_bytes:256 ~dir () in
      List.iter (Store.append_delta store) (List.init 40 body);
      Store.close store;
      let segs = segment_files dir in
      check "several segments" true (List.length segs > 1);
      let path = Filename.concat dir (List.hd segs) in
      let full = read_file path in
      let damaged = Bytes.of_string full in
      let off = String.length full / 2 in
      Bytes.set damaged off (Char.chr (Char.code full.[off] lxor 0x40));
      write_file path (Bytes.to_string damaged);
      check "mid-file damage in a sealed segment raises Corrupt" true
        (match Store.read ~dir with
        | _ -> false
        | exception Store.Corrupt _ -> true))

(* -- on-disk format -------------------------------------------------------- *)

module G = Crdt_core.Gset.Of_int

(* One sealed segment as the writer laid it down: a checkpoint of a
   100-element GSet (its two-byte length varint included), a delta
   {-5, 1000} and the seal that ends the segment.  Any change to the
   framing, the kind bytes, the CRC or its coverage breaks this. *)
let golden_segment =
  "c50111cb01edd50c3c64004a9401de01a802f202bc038604d0049a05e405ae06f806c2078c\
   08d608a009ea09b40afe0ac80b920cdc0ca60df00dba0e840fce0f9810e210ac11f611c012\
   8a13d4139e14e814b215fc15c6169017da17a418ee18b819821acc1a961be01baa1cf41cbe\
   1d881ed21e9c1fe61fb020fa20c4218e22d822a223ec23b6248025ca259426de26a827f227\
   bc288629d0299a2ae42aae2bf82bc22c8c2dd62da02eea2eb42ffe2fc8309231dc31a632f0\
   32ba338434ce349835e235ac36f636c0378a38d4389e39c5011008129d4b150209d00fc501\
   120421bb9ec5"

let of_hex h =
  String.init (String.length h / 2) (fun i ->
      Char.chr (int_of_string ("0x" ^ String.sub h (2 * i) 2)))

let golden_checkpoint =
  Crdt_wire.Codec.encode_to_string G.codec
    (G.of_list (List.init 100 (fun i -> i * 37)))

let golden_delta = Crdt_wire.Codec.encode_to_string G.codec (G.of_list [ 1000; -5 ])

let test_golden_read () =
  with_dir (fun dir ->
      Unix.mkdir dir 0o755;
      write_file
        (Filename.concat dir "segment-0000000000000000.log")
        (of_hex golden_segment);
      let r = Store.read ~dir in
      check "checkpoint body" true (r.Store.checkpoint = Some golden_checkpoint);
      check_deltas "delta bodies" [ golden_delta ] r.Store.deltas;
      check_int "replayed_records" 1 r.Store.replayed_records;
      check_int "replayed_bytes" (String.length golden_delta)
        r.Store.replayed_bytes;
      check_int "checkpoint_bytes"
        (String.length golden_checkpoint)
        r.Store.checkpoint_bytes;
      check_int "truncated_bytes" 0 r.Store.truncated_bytes;
      check_int "segments" 1 r.Store.segments)

let test_golden_write () =
  with_dir (fun dir ->
      (* A 1-byte roll threshold seals the segment after its first delta. *)
      let store, _ = Store.open_ ~segment_bytes:1 ~dir () in
      Store.checkpoint store golden_checkpoint;
      Store.append_delta store golden_delta;
      Store.close store;
      Alcotest.(check string)
        "the writer lays down the golden bytes" (of_hex golden_segment)
        (read_file (Filename.concat dir "segment-0000000000000000.log")))

(* -- linear scan ---------------------------------------------------------- *)

let test_linear_read () =
  with_dir (fun dir ->
      let n = 20_000 in
      let bodies =
        List.init n (fun i ->
            Printf.sprintf "delta-%06d-%s" i (String.make (i mod 23) 'x'))
      in
      let store, _ = Store.open_ ~dir () in
      List.iter (Store.append_delta store) bodies;
      Store.close store;
      check_int "one default-size segment" 1 (List.length (segment_files dir));
      let log_bytes =
        file_size (Filename.concat dir (List.hd (segment_files dir)))
      in
      let before = Gc.allocated_bytes () in
      let r = Store.read ~dir in
      let per_byte = (Gc.allocated_bytes () -. before) /. float log_bytes in
      check_deltas "every body, in order" bodies r.Store.deltas;
      check
        (Printf.sprintf "read allocates %.1f B per log byte (< 32)" per_byte)
        true (per_byte < 32.))

(* -- image policy --------------------------------------------------------- *)

module Image = Store.Image (G)

let rid = Crdt_core.Replica_id.of_int 0

(* Persist [n] states, each one fresh element past the last, through a
   persister that starts from [image]; returns the final state. *)
let persist_ops store ~checkpoint_every ~image ~from n =
  let persist = Image.persister store ~checkpoint_every image in
  let state = ref image in
  for e = from to from + n - 1 do
    state := G.add e rid !state;
    persist !state
  done;
  !state

let test_image_roundtrip () =
  with_dir (fun dir ->
      let k = 5 in
      let store, r = Store.open_ ~segment_bytes:256 ~dir () in
      let first =
        persist_ops store ~checkpoint_every:k ~image:(Image.recover ~dir r)
          ~from:0 23
      in
      Store.close store;
      let store, r = Store.open_ ~segment_bytes:256 ~dir () in
      let image = Image.recover ~dir r in
      check "recover = final state" true (G.equal image first);
      check_int "replays the deltas since the last checkpoint" (23 mod k)
        r.Store.replayed_records;
      (* A second writer generation continues from the recovered image,
         as a restarted serve does. *)
      let second =
        persist_ops store ~checkpoint_every:k ~image ~from:100 9
      in
      Store.close store;
      let r = Store.read ~dir in
      check "recover after a restart = final state" true
        (G.equal (Image.recover ~dir r) second);
      check_int "checkpoint cadence survives the restart" ((23 + 9) mod k)
        r.Store.replayed_records)

let test_image_unchanged () =
  with_dir (fun dir ->
      let store, _ = Store.open_ ~dir () in
      let persist = Image.persister store ~checkpoint_every:4 G.bottom in
      persist G.bottom;
      check_int "bottom over an empty image appends nothing" 0
        (Store.appended_bytes store);
      let x = G.of_list [ 1; 2; 3 ] in
      persist x;
      let after = Store.appended_bytes store in
      check "a change appends" true (after > 0);
      persist x;
      check_int "an unchanged state appends nothing" after
        (Store.appended_bytes store);
      check_int "and counts no delta" 1 (Store.deltas_since_checkpoint store);
      Store.close store)

let test_image_no_checkpoint () =
  with_dir (fun dir ->
      let store, _ = Store.open_ ~dir () in
      let final =
        persist_ops store ~checkpoint_every:0 ~image:G.bottom ~from:0 30
      in
      Store.close store;
      let r = Store.read ~dir in
      check "no checkpoint written" true (r.Store.checkpoint = None);
      check_int "every delta replays" 30 r.Store.replayed_records;
      check "recover = final state" true (G.equal (Image.recover ~dir r) final))

let test_image_appends_delta () =
  with_dir (fun dir ->
      let store, r = Store.open_ ~dir () in
      let image =
        persist_ops store ~checkpoint_every:1 ~image:(Image.recover ~dir r)
          ~from:0 50
      in
      Store.close store;
      let store, r = Store.open_ ~dir () in
      let persist =
        Image.persister store ~checkpoint_every:0 (Image.recover ~dir r)
      in
      persist (G.add 50 rid image);
      check_int "one new element appends its singleton, not the state"
        (String.length
           (Crdt_wire.Codec.encode_to_string G.codec (G.of_list [ 50 ])))
        (Store.appended_bytes store);
      Store.close store)

let test_image_undecodable_checkpoint () =
  with_dir (fun dir ->
      let store, _ = Store.open_ ~dir () in
      (* A CRC-valid checkpoint whose body is not a GSet encoding. *)
      Store.checkpoint store "\xff";
      Store.close store;
      let r = Store.read ~dir in
      check "an undecodable checkpoint raises Corrupt naming the dir" true
        (match Image.recover ~dir r with
        | _ -> false
        | exception Store.Corrupt msg ->
            String.length msg >= String.length dir
            && String.sub msg 0 (String.length dir) = dir))

let test_image_undecodable () =
  with_dir (fun dir ->
      let store, _ = Store.open_ ~dir () in
      ignore (persist_ops store ~checkpoint_every:0 ~image:G.bottom ~from:0 3);
      (* A CRC-valid record whose body is not a GSet encoding. *)
      Store.append_delta store "\xff";
      Store.close store;
      let r = Store.read ~dir in
      check "an undecodable delta raises Corrupt" true
        (match Image.recover ~dir r with
        | _ -> false
        | exception Store.Corrupt _ -> true))

let () =
  Alcotest.run "store"
    [
      ( "segment log",
        [
          Alcotest.test_case "roundtrip across rolls and reopens" `Quick
            test_roundtrip;
          Alcotest.test_case "checkpoint prunes older segments" `Quick
            test_checkpoint_prunes;
        ] );
      ( "torn tail",
        [
          Alcotest.test_case "truncation at every offset" `Quick
            test_torn_truncation;
          Alcotest.test_case "bit flip at every offset" `Quick
            test_torn_bitflips;
        ] );
      ( "checkpoint crash",
        [
          Alcotest.test_case "torn checkpoint falls back" `Quick
            test_torn_checkpoint;
        ] );
      ( "sealed segments",
        [
          Alcotest.test_case "mid-file damage raises Corrupt" `Quick
            test_corrupt_sealed_segment;
        ] );
      ( "on-disk format",
        [
          Alcotest.test_case "the golden segment reads back" `Quick
            test_golden_read;
          Alcotest.test_case "the writer still produces the golden segment"
            `Quick test_golden_write;
        ] );
      ( "linear scan",
        [
          Alcotest.test_case "20 000 records in one segment, one pass" `Quick
            test_linear_read;
        ] );
      ( "image policy",
        [
          Alcotest.test_case "persist then recover, across a restart" `Quick
            test_image_roundtrip;
          Alcotest.test_case "an unchanged state appends nothing" `Quick
            test_image_unchanged;
          Alcotest.test_case "checkpoint_every 0 never checkpoints" `Quick
            test_image_no_checkpoint;
          Alcotest.test_case "appends Δ against the image, not the state"
            `Quick test_image_appends_delta;
          Alcotest.test_case "an undecodable checkpoint raises Corrupt" `Quick
            test_image_undecodable_checkpoint;
          Alcotest.test_case "an undecodable delta raises Corrupt" `Quick
            test_image_undecodable;
        ] );
    ]
