(* Property suite for the lib/wire codec subsystem (DESIGN.md §6).

   Three layers of guarantees:

   - roundtrip: [decode (encode x) = Ok x] (up to lattice equality) for
     every composition's state codec, and join-of-decoded agrees with
     the in-memory join; protocol messages roundtrip byte-exactly
     (abstract message types are compared by re-encoding);

   - size law: the byte_size estimate (20 B node ids / 8 B ints) stays
     within a documented constant envelope of the exact encoded size:

         exact    <= 2 * estimate + 5 * weight + 16
         estimate <= 36 * exact + 16

   - robustness: decoders are total — strict prefixes and bit-flipped
     inputs return [Error] or a different value but never raise, corrupt
     length prefixes are rejected before allocating, oversized frames
     are refused by the framing layer;

   - the frame feed reads linearly: popping a long stream allocates a
     bounded number of bytes per input byte, and {!Frame.refill} yields
     the same frames whatever sizes its reads return. *)

open Crdt_core
module Codec = Crdt_wire.Codec
module Frame = Crdt_wire.Frame
module Gen = QCheck.Gen

let qtest = QCheck_alcotest.to_alcotest
let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* -- generic lattice codec laws ----------------------------------------- *)

module Wire_laws (L : Lattice_intf.LATTICE) (G : sig
  val name : string
  val gen : L.t Gen.t
end) =
struct
  let arb = QCheck.make ~print:(Format.asprintf "%a" L.pp) G.gen
  let encode x = Codec.encode_to_string L.codec x

  let roundtrip =
    QCheck.Test.make ~count:200 ~name:(G.name ^ ": decode (encode x) = Ok x")
      arb (fun x ->
        match Codec.decode_string L.codec (encode x) with
        | Ok y -> L.equal x y && L.compare x y = 0
        | Error _ -> false)

  let join_of_decoded =
    QCheck.Test.make ~count:200
      ~name:(G.name ^ ": join of decoded = join of originals")
      (QCheck.pair arb arb)
      (fun (a, b) ->
        let rt x =
          match Codec.decode_string L.codec (encode x) with
          | Ok y -> y
          | Error _ -> QCheck.Test.fail_report "decode failed"
        in
        L.equal (L.join (rt a) (rt b)) (L.join a b))

  let size_law =
    QCheck.Test.make ~count:200
      ~name:(G.name ^ ": exact size within the estimate envelope") arb
      (fun x ->
        let exact = Codec.encoded_size L.codec x in
        let est = L.byte_size x in
        let w = L.weight x in
        exact <= (2 * est) + (5 * w) + 16 && est <= (36 * exact) + 16)

  let truncation =
    QCheck.Test.make ~count:50
      ~name:(G.name ^ ": strict prefixes never decode") arb (fun x ->
        let s = encode x in
        let ok = ref true in
        for k = 0 to String.length s - 1 do
          match Codec.decode_string L.codec (String.sub s 0 k) with
          | Ok _ -> ok := false
          | Error _ -> ()
        done;
        !ok)

  let bit_flips =
    QCheck.Test.make ~count:25 ~name:(G.name ^ ": bit flips never raise") arb
      (fun x ->
        let s = encode x in
        for i = 0 to String.length s - 1 do
          for bit = 0 to 7 do
            let b = Bytes.of_string s in
            Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl bit)));
            (* Any result is fine; raising is the only failure. *)
            ignore (Codec.decode_string L.codec (Bytes.to_string b))
          done
        done;
        true)

  let tests =
    List.map qtest [ roundtrip; join_of_decoded; size_law; truncation; bit_flips ]
end

(* -- instances: every composition of the catalogue ---------------------- *)

let replica = Gen.map Replica_id.of_int (Gen.int_bound 4)
let small_string = Gen.map (fun n -> String.make n 'a') (Gen.int_bound 5)
let gset_gen = Gen.map Gset.Of_int.of_list (Gen.small_list (Gen.int_bound 30))

module Max_int_w =
  Wire_laws
    (Chain.Max_int)
    (struct
      let name = "Max_int"

      (* Full-range ints stress the zigzag varint, not just small ones. *)
      let gen =
        Gen.oneof
          [ Gen.int_bound 20; Gen.int; Gen.oneofl [ min_int; max_int; -1; 0 ] ]
    end)

module Max_string_w =
  Wire_laws
    (Chain.Max_string)
    (struct
      let name = "Max_string"
      let gen = Gen.string_size ~gen:Gen.printable (Gen.int_bound 40)
    end)

module Gset_w =
  Wire_laws
    (Gset.Of_int)
    (struct
      let name = "GSet<int>"
      let gen = gset_gen
    end)

module Gcounter_w =
  Wire_laws
    (Gcounter)
    (struct
      let name = "GCounter"

      let gen =
        Gen.map Gcounter.of_list
          (Gen.small_list (Gen.pair replica (Gen.int_range 1 10)))
    end)

module Pncounter_w =
  Wire_laws
    (Pncounter)
    (struct
      let name = "PNCounter"

      let gen =
        Gen.map Pncounter.of_list
          (Gen.small_list
             (Gen.pair replica (Gen.pair (Gen.int_bound 9) (Gen.int_bound 9))))
    end)

module Pair = Product.Make (Chain.Max_int) (Gset.Of_int)

module Product_w =
  Wire_laws
    (Pair)
    (struct
      let name = "Max_int × GSet"
      let gen = Gen.pair (Gen.int_bound 20) gset_gen
    end)

module Lex = Lexico.Make (Chain.Max_int) (Gset.Of_int)

module Lexico_w =
  Wire_laws
    (Lex)
    (struct
      let name = "Max_int ⋉ GSet"
      let gen = Gen.pair (Gen.int_bound 3) gset_gen
    end)

module Sum = Linear_sum.Make (Gset.Of_int) (Gset.Of_int)

module Linear_sum_w =
  Wire_laws
    (Sum)
    (struct
      let name = "GSet ⊕ GSet"

      let gen =
        Gen.oneof
          [
            Gen.map (fun s -> Sum.Left s) gset_gen;
            Gen.map (fun s -> Sum.Right s) gset_gen;
          ]
    end)

module Gmap_w =
  Wire_laws
    (Gmap.Versioned)
    (struct
      let name = "GMap<int,Version>"

      let gen =
        Gen.map Gmap.Versioned.of_list
          (Gen.small_list (Gen.pair (Gen.int_bound 5) (Gen.int_bound 5)))
    end)

module Aw_w =
  Wire_laws
    (Aw_set.Of_int)
    (struct
      let name = "AWSet<int>"

      let gen =
        let op =
          Gen.oneof
            [
              Gen.map (fun e -> Aw_set.Of_int.Add e) (Gen.int_bound 10);
              Gen.map (fun e -> Aw_set.Of_int.Remove e) (Gen.int_bound 10);
            ]
        in
        Gen.map
          (fun ops ->
            List.fold_left
              (fun s (i, op) -> Aw_set.Of_int.mutate op i s)
              Aw_set.Of_int.bottom ops)
          (Gen.small_list (Gen.pair replica op))
    end)

module Mv_w =
  Wire_laws
    (Mv_register)
    (struct
      let name = "MV register"

      let gen =
        Gen.map
          (fun writes ->
            List.fold_left
              (fun (acc, reg) (i, s) ->
                let reg' = Mv_register.mutate (Mv_register.Write s) i reg in
                (Mv_register.join acc reg', reg'))
              (Mv_register.bottom, Mv_register.bottom)
              writes
            |> fst)
          (Gen.small_list (Gen.pair replica small_string))
    end)

module Divisibility = struct
  type t = int

  (* Total on all of int (decoded fuzz inputs may carry 0): 0 divides
     only itself. *)
  let leq a b = if a = 0 then b = 0 else b mod a = 0
  let compare = Int.compare
  let weight _ = 1
  let byte_size _ = 8
  let codec = Codec.int
  let pp ppf = Format.fprintf ppf "%d"
end

module Div_chain = Antichain.Make (Divisibility)

module Antichain_w =
  Wire_laws
    (Div_chain)
    (struct
      let name = "M(divisibility)"
      let gen = Gen.map Div_chain.of_list (Gen.small_list (Gen.int_range 1 60))
    end)

(* Deep composite: the shape of real application state. *)
module Deep_value = Product.Make (Gcounter) (Lex)
module Deep = Map_lattice.Make (Gmap.Int_key) (Deep_value)

module Deep_w =
  Wire_laws
    (Deep)
    (struct
      let name = "Map<int, GCounter × (ℕ ⋉ GSet)>"

      let gen =
        let gcounter =
          Gen.map Gcounter.of_list
            (Gen.small_list (Gen.pair replica (Gen.int_range 1 9)))
        in
        let value =
          Gen.pair gcounter (Gen.pair (Gen.int_bound 3) gset_gen)
        in
        Gen.map Deep.of_list
          (Gen.small_list (Gen.pair (Gen.int_bound 5) value))
    end)

module User_w =
  Wire_laws
    (Crdt_retwis.User_state)
    (struct
      let name = "Retwis user state"

      let gen =
        let op =
          Gen.oneof
            [
              Gen.map (fun u -> Crdt_retwis.User_state.Follow u) (Gen.int_bound 20);
              Gen.map
                (fun (id, c) ->
                  Crdt_retwis.User_state.Post { tweet_id = id; content = c })
                (Gen.pair small_string small_string);
              Gen.map
                (fun (ts, id) ->
                  Crdt_retwis.User_state.Timeline_add
                    { timestamp = ts; tweet_id = id })
                (Gen.pair (Gen.int_bound 100) small_string);
            ]
        in
        Gen.map
          (fun ops ->
            List.fold_left
              (fun s (i, op) -> Crdt_retwis.User_state.mutate op i s)
              Crdt_retwis.User_state.bottom ops)
          (Gen.small_list (Gen.pair replica op))
    end)

(* -- protocol message roundtrips ---------------------------------------- *)

(* Messages are harvested by driving a real 3-replica full-mesh exchange
   (ticks, handler replies, and — when tolerated — a crash/recover to
   provoke the recovery messages), then each message is checked to
   decode and re-encode byte-identically, with message_wire_bytes equal
   to the framed size of the encoding. *)
module Proto_messages
    (P : Crdt_proto.Protocol_intf.PROTOCOL) (W : sig
      val name : string
      val ops_at : round:int -> node:int -> P.op list
    end) =
struct
  let collect () =
    let ids = [ 0; 1; 2 ] in
    let nodes =
      Array.init 3 (fun i ->
          P.init ~id:i ~neighbors:(List.filter (fun j -> j <> i) ids) ~total:3)
    in
    let collected = ref [] in
    let deliver msgs =
      (* Waves of (src, dst, message), replies feeding the next wave. *)
      let wave = ref msgs in
      let steps = ref 0 in
      while !wave <> [] && !steps < 32 do
        incr steps;
        let next = ref [] in
        List.iter
          (fun (src, dst, m) ->
            collected := m :: !collected;
            let n, replies = P.handle nodes.(dst) ~src m in
            nodes.(dst) <- n;
            List.iter (fun (j, r) -> next := (dst, j, r) :: !next) replies)
          !wave;
        wave := List.rev !next
      done
    in
    for round = 0 to 5 do
      if round = 3 && P.capabilities.Crdt_proto.Protocol_intf.tolerates_crash
      then nodes.(1) <- P.recover (P.crash nodes.(1));
      Array.iteri
        (fun i _ ->
          List.iter
            (fun op -> nodes.(i) <- P.local_update nodes.(i) op)
            (W.ops_at ~round ~node:i))
        nodes;
      let outbound = ref [] in
      Array.iteri
        (fun i _ ->
          let n, msgs = P.tick nodes.(i) in
          nodes.(i) <- n;
          List.iter (fun (j, m) -> outbound := (i, j, m) :: !outbound) msgs)
        nodes;
      deliver (List.rev !outbound)
    done;
    !collected

  let test =
    Alcotest.test_case (W.name ^ ": messages roundtrip byte-exactly") `Quick
      (fun () ->
        let msgs = collect () in
        check "harvested some messages" true (msgs <> []);
        List.iter
          (fun m ->
            let enc = Codec.encode_to_string P.message_codec m in
            match Codec.decode_string P.message_codec enc with
            | Error e ->
                Alcotest.failf "%s: decode failed: %s" W.name
                  (Codec.error_to_string e)
            | Ok m' ->
                Alcotest.(check string)
                  "re-encode is byte-identical" enc
                  (Codec.encode_to_string P.message_codec m');
                check_int "message_wire_bytes = framed size"
                  (Frame.framed_size ~payload_len:(String.length enc))
                  (P.message_wire_bytes m))
          msgs)

  (* The batched data path appends into reused buffers instead of
     allocating a string per message; batching must never change a wire
     byte, so [encode_into] (into a buffer that already holds other
     data) and [Frame.encode_value_into] (the staging path Conn uses)
     must agree byte-for-byte with their allocating counterparts on
     every message the protocol actually produces. *)
  let test_into =
    Alcotest.test_case
      (W.name ^ ": encode_into agrees with encode_to_string")
      `Quick
      (fun () ->
        let msgs = collect () in
        check "harvested some messages" true (msgs <> []);
        let buf = Buffer.create 256 in
        let framed = Buffer.create 256 in
        let scratch = Buffer.create 256 in
        List.iter
          (fun m ->
            let enc = Codec.encode_to_string P.message_codec m in
            Buffer.clear buf;
            Buffer.add_string buf "prior-bytes";
            Codec.encode_into buf P.message_codec m;
            Alcotest.(check string)
              "encode_into appends exactly encode_to_string"
              ("prior-bytes" ^ enc) (Buffer.contents buf);
            Buffer.clear framed;
            Frame.encode_value_into ~scratch framed ~kind:1 P.message_codec m;
            Alcotest.(check string)
              "Frame.encode_value_into = Frame.encode"
              (Frame.encode ~kind:1 enc)
              (Buffer.contents framed))
          msgs)

  (* [encoded_size] measures in a per-domain scratch buffer instead of
     encoding into a fresh one: it must equal the encoded length on this
     domain, on a second domain, and when called from inside another
     codec's [write] (which shares the scratch buffer with it). *)
  let test_sized =
    Alcotest.test_case (W.name ^ ": encoded_size is the encoded length")
      `Quick
      (fun () ->
        let msgs = collect () in
        check "harvested some messages" true (msgs <> []);
        let sized () =
          List.for_all
            (fun m ->
              Codec.encoded_size P.message_codec m
              = String.length (Codec.encode_to_string P.message_codec m))
            msgs
        in
        check "this domain" true (sized ());
        check "second domain" true (Domain.join (Domain.spawn sized));
        let nested =
          {
            Codec.write =
              (fun buf m ->
                Codec.write_varint buf 7;
                Codec.write_varint buf (Codec.encoded_size P.message_codec m);
                Codec.write P.message_codec buf m);
            read = (fun _ -> Error Codec.Truncated);
          }
        in
        List.iter
          (fun m ->
            let inner = Codec.encode_to_string P.message_codec m in
            let outer = Codec.encode_to_string nested m in
            Alcotest.(check int) "nested write sizes the inner message"
              (1 + Codec.varint_size (String.length inner) + String.length inner)
              (String.length outer);
            Alcotest.(check int) "encoded_size around a nested call"
              (String.length outer) (Codec.encoded_size nested m))
          msgs)
end

open Crdt_proto

let gset_ops ~round ~node = [ (round * 100) + node ]

module Msg_state =
  Proto_messages
    (State_sync.Make (Gset.Of_int))
    (struct
      let name = "state-based/GSet"
      let ops_at = gset_ops
    end)

module Msg_bp_rr =
  Proto_messages
    (Delta_sync.Make (Gset.Of_int) (Delta_sync.Bp_rr_config))
    (struct
      let name = "delta-bp+rr/GSet"
      let ops_at = gset_ops
    end)

module Msg_ack =
  Proto_messages
    (Delta_sync.Make (Gset.Of_int) (Delta_sync.Ack_config))
    (struct
      (* Ack mode also exercises Ack and the SyncReq/SyncResp recovery
         exchange (the harvest crashes and recovers node 1). *)
      let name = "delta-bp+rr-ack/GSet"
      let ops_at = gset_ops
    end)

module Msg_delta_gmap =
  Proto_messages
    (Delta_sync.Make (Gmap.Versioned) (Delta_sync.Bp_rr_config))
    (struct
      let name = "delta-bp+rr/GMap"

      let ops_at ~round ~node =
        [ Gmap.Versioned.Apply (((round * 3) + node) mod 7, Version.Bump) ]
    end)

module Msg_scuttlebutt =
  Proto_messages
    (Scuttlebutt.Make (Gset.Of_int) (Scuttlebutt.No_gc_config))
    (struct
      let name = "scuttlebutt/GSet"
      let ops_at = gset_ops
    end)

module Msg_op =
  Proto_messages
    (Op_sync.Make (Gcounter))
    (struct
      let name = "op-based/GCounter"
      let ops_at ~round:_ ~node:_ = [ Gcounter.Inc 1 ]
    end)

module Msg_merkle =
  Proto_messages
    (Merkle_sync.Make (Gset.Of_int))
    (struct
      let name = "merkle/GSet"
      let ops_at = gset_ops
    end)

(* Conflict-sync under the default tuning: the crash/recover at round 3
   triggers the post-restart resync sessions, so the harvest carries
   Delta, Digest, SyncReq, Cells and the decoded-session close legs. *)
module Msg_conflict =
  Proto_messages
    (Conflict_sync.Make (Gset.Of_int) (Conflict_sync.Default_config))
    (struct
      let name = "conflict-sync/GSet"
      let ops_at = gset_ops
    end)

(* Near-zero escalation threshold + a heavier op rate: the resync
   difference is too big for two cells, so this harvest additionally
   carries More, BloomReq and BloomResp — the escalation wire surface
   the default harvest never reaches. *)
module Tiny_escalation_config = struct
  let fpr = 0.05
  let chunk0 = 1
  let escalate_cells = 2
  let mismatch_streak = 1
  let quiet_ticks = 1
  let session_timeout = 4
end

module Msg_conflict_bloom =
  Proto_messages
    (Conflict_sync.Make (Gset.Of_int) (Tiny_escalation_config))
    (struct
      let name = "conflict-sync-bloom/GSet"

      let ops_at ~round ~node =
        List.init 8 (fun k -> (round * 1000) + (node * 100) + k)
    end)

module Shard_key = struct
  type t = int

  let compare = Int.compare
  let byte_size _ = 8
  let codec = Codec.int
end

module Msg_sharded =
  Proto_messages
    (Sharded.Make (Shard_key) (Gset.Of_string)
       (Delta_sync.Make (Gset.Of_string) (Delta_sync.Bp_rr_config)))
    (struct
      let name = "sharded-delta/GSet"

      let ops_at ~round ~node =
        [ (round mod 3, Printf.sprintf "e-%d-%d" round node) ]
    end)

let message_tests =
  [
    Msg_state.test;
    Msg_bp_rr.test;
    Msg_ack.test;
    Msg_delta_gmap.test;
    Msg_scuttlebutt.test;
    Msg_op.test;
    Msg_merkle.test;
    Msg_conflict.test;
    Msg_conflict_bloom.test;
    Msg_sharded.test;
    Msg_state.test_into;
    Msg_bp_rr.test_into;
    Msg_ack.test_into;
    Msg_delta_gmap.test_into;
    Msg_scuttlebutt.test_into;
    Msg_op.test_into;
    Msg_merkle.test_into;
    Msg_conflict.test_into;
    Msg_conflict_bloom.test_into;
    Msg_sharded.test_into;
    Msg_state.test_sized;
    Msg_bp_rr.test_sized;
    Msg_ack.test_sized;
    Msg_delta_gmap.test_sized;
    Msg_scuttlebutt.test_sized;
    Msg_op.test_sized;
    Msg_merkle.test_sized;
    Msg_conflict.test_sized;
    Msg_conflict_bloom.test_sized;
    Msg_sharded.test_sized;
  ]

(* -- corruption fuzz over real conflict-sync traffic --------------------- *)

(* The new wire surface (digests, cell streams, Bloom filters) must shrug
   off damaged inputs: any truncation or bit flip of a genuine message
   either decodes to an error or to some valid message — never an
   exception — and whatever does decode re-encodes canonically (so a
   corrupted input can't smuggle in a value the sender could not have
   produced). *)
let corruption_tests =
  let module P = Conflict_sync.Make (Gset.Of_int) (Tiny_escalation_config) in
  let module M =
    Proto_messages
      (P)
      (struct
        let name = "conflict-sync fuzz"

        let ops_at ~round ~node =
          List.init 8 (fun k -> (round * 1000) + (node * 100) + k)
      end)
  in
  let well_formed what s =
    match Codec.decode_string P.message_codec s with
    | Error _ -> ()
    | Ok m ->
        let enc = Codec.encode_to_string P.message_codec m in
        (match Codec.decode_string P.message_codec enc with
        | Ok m' ->
            Alcotest.(check string)
              (what ^ ": accepted corruption re-encodes stably")
              enc
              (Codec.encode_to_string P.message_codec m')
        | Error e ->
            Alcotest.failf "%s: accepted value fails to roundtrip: %s" what
              (Codec.error_to_string e))
  in
  [
    Alcotest.test_case "every truncation of every message is handled" `Quick
      (fun () ->
        let msgs = M.collect () in
        check "harvested some messages" true (msgs <> []);
        List.iter
          (fun m ->
            let enc = Codec.encode_to_string P.message_codec m in
            for len = 0 to String.length enc - 1 do
              well_formed
                (Printf.sprintf "truncate to %d/%d" len (String.length enc))
                (String.sub enc 0 len)
            done)
          msgs);
    Alcotest.test_case "single bit flips are handled" `Quick (fun () ->
        let msgs = M.collect () in
        List.iter
          (fun m ->
            let enc = Codec.encode_to_string P.message_codec m in
            String.iteri
              (fun i c ->
                let b = Bytes.of_string enc in
                Bytes.set b i (Char.chr (Char.code c lxor (1 lsl (i mod 8))));
                well_formed
                  (Printf.sprintf "flip bit %d of byte %d" (i mod 8) i)
                  (Bytes.to_string b))
              enc)
          msgs);
  ]

(* -- primitive codecs ---------------------------------------------------- *)

let primitive_tests =
  [
    qtest
      (QCheck.Test.make ~count:500 ~name:"zigzag int roundtrip (full range)"
         (QCheck.make
            Gen.(
              oneof
                [ int; oneofl [ min_int; max_int; 0; -1; 1; 1 lsl 62 ] ]))
         (fun n ->
           Codec.decode_string Codec.int
             (Codec.encode_to_string Codec.int n)
           = Ok n));
    qtest
      (QCheck.Test.make ~count:500 ~name:"varint roundtrip (non-negative)"
         (QCheck.make Gen.(oneof [ nat; oneofl [ 0; 1; max_int ] ]))
         (fun n ->
           Codec.decode_string Codec.varint
             (Codec.encode_to_string Codec.varint n)
           = Ok n));
    Alcotest.test_case "varint size matches encoding" `Quick (fun () ->
        List.iter
          (fun n ->
            check_int
              (Printf.sprintf "varint_size %d" n)
              (String.length (Codec.encode_to_string Codec.varint n))
              (Codec.varint_size n))
          [ 0; 1; 127; 128; 16383; 16384; 1 lsl 35; max_int ]);
  ]

(* -- allocation caps and framing robustness ------------------------------ *)

let adversarial_tests =
  [
    Alcotest.test_case "corrupt list count rejected before allocating" `Quick
      (fun () ->
        (* A claimed element count of 2^40 with no elements behind it must
           be rejected by the remaining-bytes check, not allocated. *)
        let huge = Codec.encode_to_string Codec.varint (1 lsl 40) in
        (match Codec.decode_string (Codec.list Codec.varint) huge with
        | Error (Codec.Malformed _) -> ()
        | Error Codec.Truncated -> Alcotest.fail "expected Malformed, got Truncated"
        | Ok _ -> Alcotest.fail "decoded a 2^40-element list from 6 bytes");
        match Codec.decode_string Codec.string huge with
        | Error (Codec.Malformed _) -> ()
        | Error Codec.Truncated -> Alcotest.fail "expected Malformed, got Truncated"
        | Ok _ -> Alcotest.fail "decoded a 2^40-byte string from 6 bytes");
    Alcotest.test_case "oversized frame refused by the feed" `Quick (fun () ->
        let feed = Frame.feed ~max_payload:1024 () in
        let huge_header =
          let buf = Buffer.create 8 in
          Buffer.add_char buf (Char.chr Frame.magic);
          Buffer.add_char buf (Char.chr Frame.version);
          Buffer.add_char buf '\001';
          Codec.write_varint buf (1 lsl 30);
          Buffer.contents buf
        in
        Frame.push feed huge_header;
        (match Frame.pop feed with
        | Error (Codec.Malformed _) -> ()
        | Error Codec.Truncated | Ok _ -> Alcotest.fail "oversized frame accepted");
        (* The error is sticky: the stream is garbage from here on. *)
        Frame.push feed (String.make 4 '\000');
        match Frame.pop feed with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "feed recovered after a framing violation");
    Alcotest.test_case "bad magic / version rejected" `Quick (fun () ->
        let frame = Frame.encode ~kind:1 "payload" in
        let flip i c =
          let b = Bytes.of_string frame in
          Bytes.set b i c;
          Bytes.to_string b
        in
        (match Frame.decode (flip 0 'X') with
        | Error (Codec.Malformed _) -> ()
        | _ -> Alcotest.fail "bad magic accepted");
        match Frame.decode (flip 1 '\255') with
        | Error (Codec.Malformed _) -> ()
        | _ -> Alcotest.fail "future version accepted");
    Alcotest.test_case "frame roundtrip and byte-at-a-time feed" `Quick
      (fun () ->
        let payloads = [ ""; "x"; String.make 300 'p'; "\000\255\xc5" ] in
        let stream =
          String.concat ""
            (List.mapi (fun i p -> Frame.encode ~kind:(i mod 3) p) payloads)
        in
        let feed = Frame.feed () in
        let got = ref [] in
        String.iter
          (fun c ->
            Frame.push feed (String.make 1 c);
            let rec drain () =
              match Frame.pop feed with
              | Ok (Some (kind, payload)) ->
                  got := (kind, payload) :: !got;
                  drain ()
              | Ok None -> ()
              | Error e -> Alcotest.failf "feed: %s" (Codec.error_to_string e)
            in
            drain ())
          stream;
        Alcotest.(check (list (pair int string)))
          "all frames recovered in order"
          (List.mapi (fun i p -> (i mod 3, p)) payloads)
          (List.rev !got);
        check_int "nothing pending" 0 (Frame.pending_bytes feed));
    Alcotest.test_case "burst: hundreds of frames in one chunk" `Quick
      (fun () ->
        (* The batched writer hands the receiver many frames per read(2):
           a single pushed chunk must yield every frame, in order, and
           the coalesced stream must be byte-identical to concatenating
           the per-frame encoder's output. *)
        let n = 500 in
        let payload i = Printf.sprintf "payload-%d-%s" i (String.make (i mod 37) 'x') in
        let buf = Buffer.create 8192 in
        for i = 0 to n - 1 do
          Frame.encode_into buf ~kind:(i mod 5) (payload i)
        done;
        let expected =
          String.concat ""
            (List.init n (fun i -> Frame.encode ~kind:(i mod 5) (payload i)))
        in
        Alcotest.(check string)
          "encode_into stream = concatenated Frame.encode" expected
          (Buffer.contents buf);
        let feed = Frame.feed () in
        Frame.push feed (Buffer.contents buf);
        let got = ref 0 in
        let rec drain () =
          match Frame.pop feed with
          | Ok (Some (kind, p)) ->
              check_int "kind" (!got mod 5) kind;
              Alcotest.(check string) "payload" (payload !got) p;
              incr got;
              drain ()
          | Ok None -> ()
          | Error e -> Alcotest.failf "feed: %s" (Codec.error_to_string e)
        in
        drain ();
        check_int "every frame recovered" n !got;
        check_int "nothing pending" 0 (Frame.pending_bytes feed));
    qtest
      (QCheck.Test.make ~count:200 ~name:"arbitrary bytes never crash Frame.decode"
         (QCheck.make (Gen.string_size ~gen:Gen.char (Gen.int_bound 64)))
         (fun s ->
           ignore (Frame.decode s);
           let feed = Frame.feed () in
           Frame.push feed s;
           (match Frame.pop feed with Ok _ | Error _ -> ());
           true));
  ]

(* -- the feed's window ---------------------------------------------------- *)

let feed_payload i =
  Printf.sprintf "frame-%06d-%s" i (String.make (i mod 29) 'f')

(* Every frame [pop] yields until it needs more input. *)
let drain_feed feed =
  let rec go acc =
    match Frame.pop feed with
    | Ok (Some frame) -> go (frame :: acc)
    | Ok None -> List.rev acc
    | Error e -> Alcotest.failf "feed: %s" (Codec.error_to_string e)
  in
  go []

(* A reader over [stream] for {!Frame.refill} that hands out at most
   [step] bytes per call, 0 once the stream is exhausted. *)
let chunked_reader stream step =
  let at = ref 0 in
  fun buf off n ->
    let k = min (min step n) (String.length stream - !at) in
    Bytes.blit_string stream !at buf off k;
    at := !at + k;
    k

let feed_tests =
  [
    Alcotest.test_case "20 000 frames in one chunk pop in one linear pass"
      `Quick (fun () ->
        let n = 20_000 in
        let buf = Buffer.create (n * 40) in
        for i = 0 to n - 1 do
          Frame.encode_into buf ~kind:(i mod 5) (feed_payload i)
        done;
        let stream = Buffer.contents buf in
        let feed = Frame.feed () in
        Frame.push feed stream;
        let got = Array.make n (0, "") in
        let before = Gc.allocated_bytes () in
        let rec pop_all i =
          match Frame.pop feed with
          | Ok (Some frame) ->
              got.(i) <- frame;
              pop_all (i + 1)
          | Ok None -> i
          | Error e -> Alcotest.failf "feed: %s" (Codec.error_to_string e)
        in
        let popped = pop_all 0 in
        let per_byte =
          (Gc.allocated_bytes () -. before) /. float (String.length stream)
        in
        check_int "every frame popped" n popped;
        Array.iteri
          (fun i (kind, p) ->
            if kind <> i mod 5 || p <> feed_payload i then
              Alcotest.failf "frame %d out of order" i)
          got;
        check_int "nothing pending" 0 (Frame.pending_bytes feed);
        check
          (Printf.sprintf "pops allocate %.1f B per input byte (< 32)" per_byte)
          true (per_byte < 32.));
    Alcotest.test_case "refill yields the same frames at every read size"
      `Quick (fun () ->
        (* Empty, small and larger-than-a-chunk payloads, so frames
           straddle every read boundary and the window must grow. *)
        let payloads =
          List.init 300 (fun i ->
              if i = 150 then String.make 100_000 'L'
              else if i mod 50 = 0 then ""
              else feed_payload i)
        in
        let stream =
          String.concat ""
            (List.mapi (fun i p -> Frame.encode ~kind:(i mod 3) p) payloads)
        in
        let expected = List.mapi (fun i p -> (i mod 3, p)) payloads in
        for step = 1 to 17 do
          let feed = Frame.feed () in
          let read = chunked_reader stream step in
          let rec go acc =
            match Frame.refill feed ~max:4096 read with
            | 0 -> List.concat (List.rev acc)
            | k ->
                check "a read returns at most its step" true (k <= step);
                go (drain_feed feed :: acc)
          in
          Alcotest.(check (list (pair int string)))
            (Printf.sprintf "%d-byte reads" step)
            expected (go []);
          check_int
            (Printf.sprintf "%d-byte reads leave nothing pending" step)
            0 (Frame.pending_bytes feed)
        done);
    Alcotest.test_case "a raising reader leaves the buffered bytes intact"
      `Quick (fun () ->
        let first = Frame.encode ~kind:1 "first" in
        let second = Frame.encode ~kind:2 (String.make 5000 's') in
        let feed = Frame.feed () in
        (* One whole frame and half of the next: popping the first moves
           the window off 0, so the next refill must slide and grow it. *)
        Frame.push feed (first ^ String.sub second 0 2500);
        Alcotest.(check (list (pair int string)))
          "the whole frame pops" [ (1, "first") ] (drain_feed feed);
        let pending = Frame.pending_bytes feed in
        (match
           Frame.refill feed ~max:65536 (fun buf off _ ->
               Bytes.fill buf off 8 'X';
               failwith "read failed")
         with
        | _ -> Alcotest.fail "the reader's exception was swallowed"
        | exception Failure _ -> ());
        check_int "pending bytes unchanged" pending (Frame.pending_bytes feed);
        let rest = String.sub second 2500 (String.length second - 2500) in
        let n = Frame.refill feed ~max:65536 (chunked_reader rest 65536) in
        check_int "the rest is read" (String.length rest) n;
        Alcotest.(check (list (pair int string)))
          "the straddling frame pops whole"
          [ (2, String.make 5000 's') ]
          (drain_feed feed));
  ]

(* -- vclock -------------------------------------------------------------- *)

let vclock_tests =
  [
    qtest
      (QCheck.Test.make ~count:200 ~name:"vclock roundtrip (zeros dropped)"
         (QCheck.make
            Gen.(
              small_list (pair (int_bound 6) (int_bound 5))))
         (fun entries ->
           let vc =
             List.fold_left
               (fun vc (i, n) -> Vclock.set i n vc)
               Vclock.empty entries
           in
           match
             Codec.decode_string Vclock.codec
               (Codec.encode_to_string Vclock.codec vc)
           with
           | Ok vc' -> Vclock.compare vc vc' = 0
           | Error _ -> false));
  ]

let () =
  Alcotest.run "wire"
    [
      ("primitives", primitive_tests);
      ("Max_int", Max_int_w.tests);
      ("Max_string", Max_string_w.tests);
      ("GSet", Gset_w.tests);
      ("GCounter", Gcounter_w.tests);
      ("PNCounter", Pncounter_w.tests);
      ("Product", Product_w.tests);
      ("Lexico", Lexico_w.tests);
      ("Linear_sum", Linear_sum_w.tests);
      ("GMap", Gmap_w.tests);
      ("AWSet", Aw_w.tests);
      ("MV", Mv_w.tests);
      ("Antichain", Antichain_w.tests);
      ("Deep", Deep_w.tests);
      ("Retwis", User_w.tests);
      ("messages", message_tests);
      ("corruption fuzz", corruption_tests);
      ("adversarial", adversarial_tests);
      ("feed", feed_tests);
      ("vclock", vclock_tests);
    ]
