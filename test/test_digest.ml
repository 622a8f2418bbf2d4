(* Tests for lib/digest: the shared hashing story, the Bloom filter and
   the rateless IBLT underneath conflict-sync, plus a byte-compat
   regression pinning that extracting the merkle digest helpers into
   lib/digest did not change a single wire byte of the merkle protocol. *)

open Crdt_core
open Crdt_proto
module Codec = Crdt_wire.Codec
module Hash = Crdt_digest.Hash
module Bloom = Crdt_digest.Bloom
module Iblt = Crdt_digest.Iblt

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let qtest = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* Hash                                                                *)
(* ------------------------------------------------------------------ *)

let hash_tests =
  [
    Alcotest.test_case "of_value hashes the wire encoding" `Quick (fun () ->
        List.iter
          (fun v ->
            check_int "of_value = of_string . encode"
              (Hash.of_string (Codec.encode_to_string Codec.varint v))
              (Hash.of_value Codec.varint v))
          [ 0; 1; 127; 128; 300_000; max_int ]);
    Alcotest.test_case "keys are positive and nonzero" `Quick (fun () ->
        (* Zero is reserved for empty IBLT/Bloom sums, so no input may
           hash to it, and negative keys would break varint encoding. *)
        for i = 0 to 10_000 do
          let k = Hash.of_string (string_of_int i) in
          if k <= 0 then Alcotest.failf "key %d for input %d" k i
        done;
        check "empty string hashes fine" true (Hash.of_string "" > 0));
    Alcotest.test_case "derive gives independent functions per salt" `Quick
      (fun () ->
        let h = Hash.of_string "some-irreducible" in
        let salts = [ 0; 1; 101; 202; 303; 404 ] in
        let derived = List.map (fun s -> Hash.derive ~salt:s h) salts in
        let distinct = List.sort_uniq compare derived in
        check_int "no salt collisions on a sample key" (List.length salts)
          (List.length distinct);
        check_int "derive is deterministic"
          (Hash.derive ~salt:7 h) (Hash.derive ~salt:7 h));
    Alcotest.test_case "combine is order-independent" `Quick (fun () ->
        let keys = List.init 100 (fun i -> Hash.of_string (string_of_int i)) in
        let fold ks = List.fold_left Hash.combine 0 ks in
        check_int "reversed fold agrees" (fold keys) (fold (List.rev keys));
        let shuffled =
          List.sort (fun a b -> compare (Hash.mix a) (Hash.mix b)) keys
        in
        check_int "shuffled fold agrees" (fold keys) (fold shuffled);
        check "digest distinguishes sets" true
          (fold keys <> fold (List.tl keys)));
  ]

(* ------------------------------------------------------------------ *)
(* Bloom                                                               *)
(* ------------------------------------------------------------------ *)

let member_keys n = List.init n (fun i -> Hash.of_string ("member-" ^ string_of_int i))
let probe_keys n = List.init n (fun i -> Hash.of_string ("probe-" ^ string_of_int i))

let bloom_tests =
  [
    Alcotest.test_case "no false negatives at n=10000" `Quick (fun () ->
        let keys = member_keys 10_000 in
        let t = Bloom.of_keys ~fpr:0.01 keys in
        check "every inserted key is a member" true
          (List.for_all (Bloom.mem t) keys));
    Alcotest.test_case "measured FPR within 2x of configured" `Quick
      (fun () ->
        (* 10k members, 10k disjoint probes, fpr=0.01: expect ~100 false
           positives; 200 is a >10-sigma bound, so a failure means the
           sizing math or double hashing regressed, not bad luck. *)
        let t = Bloom.of_keys ~fpr:0.01 (member_keys 10_000) in
        let fps =
          List.length (List.filter (Bloom.mem t) (probe_keys 10_000))
        in
        if fps > 200 then
          Alcotest.failf "%d false positives on 10k probes (limit 200)" fps);
    Alcotest.test_case "codec roundtrips the exact bit array" `Quick
      (fun () ->
        let t = Bloom.of_keys ~fpr:0.02 (member_keys 500) in
        let enc = Codec.encode_to_string Bloom.codec t in
        match Codec.decode_string Bloom.codec enc with
        | Error e -> Alcotest.failf "decode: %s" (Codec.error_to_string e)
        | Ok t' ->
            check "same membership" true
              (List.for_all (Bloom.mem t') (member_keys 500));
            check "re-encode is byte-identical" true
              (String.equal enc (Codec.encode_to_string Bloom.codec t')));
    Alcotest.test_case "truncated encoding is rejected" `Quick (fun () ->
        let t = Bloom.of_keys ~fpr:0.01 (member_keys 100) in
        let enc = Codec.encode_to_string Bloom.codec t in
        let cut = String.sub enc 0 (String.length enc - 1) in
        match Codec.decode_string Bloom.codec cut with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "truncated bloom decoded");
  ]

(* ------------------------------------------------------------------ *)
(* IBLT                                                                *)
(* ------------------------------------------------------------------ *)

(* Distinct positive keys from an int list (the generators below produce
   arbitrary ints; keys must be hashed to the 63-bit key space). *)
let keys_of_ints ints =
  List.sort_uniq compare (List.map (fun i -> Hash.of_string (string_of_int i)) ints)

(* Decode a difference by streaming prefixes of doubling length, exactly
   like a conflict-sync session: any prefix is a valid IBLT, and decode
   must land before the table is ~4x the difference.  Returns the signed
   symmetric difference as sorted lists. *)
let decode_with_doubling ~a_keys ~b_keys =
  let diff =
    List.length (List.filter (fun k -> not (List.mem k b_keys)) a_keys)
    + List.length (List.filter (fun k -> not (List.mem k a_keys)) b_keys)
  in
  let rec go len =
    if len > 4096 then None
    else
      let d =
        Iblt.sub
          (Iblt.build ~keys:a_keys ~lo:0 ~len)
          (Iblt.build ~keys:b_keys ~lo:0 ~len)
      in
      match Iblt.peel d with
      | Some (plus, minus) ->
          Some (List.sort compare plus, List.sort compare minus, len)
      | None -> go (len * 2)
  in
  go (max 8 diff)

let iblt_tests =
  [
    qtest
      (QCheck.Test.make ~count:100
         ~name:"iblt: peel(build keys) recovers exactly the key set"
         QCheck.(list small_nat)
         (fun ints ->
           let keys = keys_of_ints ints in
           match decode_with_doubling ~a_keys:keys ~b_keys:[] with
           | None -> false
           | Some (plus, minus, _) ->
               plus = List.sort compare keys && minus = []));
    qtest
      (QCheck.Test.make ~count:100
         ~name:"iblt: sub of two tables peels to the symmetric difference"
         QCheck.(triple (list small_nat) (list small_nat) (list small_nat))
         (fun (shared, a_only, b_only) ->
           (* Congruence classes keep the three groups disjoint before
              hashing: 3i+1 / 3i+2 / 3i+3 never collide. *)
           let shared = keys_of_ints (List.map (fun i -> (3 * i) + 1) shared) in
           let a_only = keys_of_ints (List.map (fun i -> (3 * i) + 2) a_only) in
           let b_only = keys_of_ints (List.map (fun i -> (3 * i) + 3) b_only) in
           let a_keys = shared @ a_only and b_keys = shared @ b_only in
           match decode_with_doubling ~a_keys ~b_keys with
           | None -> false
           | Some (plus, minus, _) ->
               plus = List.sort compare a_only
               && minus = List.sort compare b_only));
    qtest
      (QCheck.Test.make ~count:100
         ~name:"iblt: concatenated chunks equal one contiguous build"
         QCheck.(pair (list small_nat) (pair small_nat small_nat))
         (fun (ints, (a, b)) ->
           (* The cell stream ships chunk [0,a) then [a,a+b); receivers
              concatenate.  That only works if chunked construction is
              literally the contiguous prefix. *)
           let keys = keys_of_ints ints in
           let a = 1 + a and b = 1 + b in
           Array.append
             (Iblt.build ~keys ~lo:0 ~len:a)
             (Iblt.build ~keys ~lo:a ~len:b)
           = Iblt.build ~keys ~lo:0 ~len:(a + b)));
    qtest
      (QCheck.Test.make ~count:200 ~name:"iblt: cell codec roundtrips"
         QCheck.(triple small_signed_int small_nat small_nat)
         (fun (count, key_sum, hash_sum) ->
           let c = { Iblt.count; key_sum; hash_sum } in
           match
             Codec.decode_string Iblt.cell_codec
               (Codec.encode_to_string Iblt.cell_codec c)
           with
           | Ok c' -> c = c'
           | Error _ -> false));
    Alcotest.test_case "sub rejects mismatched lengths" `Quick (fun () ->
        let a = Iblt.build ~keys:[ Hash.of_string "x" ] ~lo:0 ~len:8 in
        let b = Iblt.build ~keys:[ Hash.of_string "x" ] ~lo:0 ~len:16 in
        Alcotest.check_raises "invalid_arg"
          (Invalid_argument "Iblt.sub: length mismatch") (fun () ->
            ignore (Iblt.sub a b)));
    Alcotest.test_case "empty difference peels to nothing" `Quick (fun () ->
        let keys = keys_of_ints (List.init 50 Fun.id) in
        let d =
          Iblt.sub
            (Iblt.build ~keys ~lo:0 ~len:8)
            (Iblt.build ~keys ~lo:0 ~len:8)
        in
        match Iblt.peel d with
        | Some ([], []) -> ()
        | Some _ -> Alcotest.fail "phantom difference"
        | None -> Alcotest.fail "identical tables must decode");
  ]

(* ------------------------------------------------------------------ *)
(* Merkle wire byte-compat regression                                  *)
(* ------------------------------------------------------------------ *)

(* The digest helpers merkle is built on were extracted into lib/digest;
   this pins that the extraction (and any future lib/digest change) does
   not alter merkle's wire format.  Two replicas are driven through a
   deterministic divergence-and-reconcile cascade; every message, in
   delivery order, is encoded through the protocol codec and folded into
   one MD5.  The constant below was recorded when the stream was first
   captured — a mismatch means merkle's bytes moved. *)

module Merkle_gset = Merkle_sync.Make (Gset.Of_int)

let harvest_merkle_stream () =
  let module P = Merkle_gset in
  let a = ref (P.init ~id:0 ~neighbors:[ 1 ] ~total:2) in
  let b = ref (P.init ~id:1 ~neighbors:[ 0 ] ~total:2) in
  for i = 0 to 40 do
    a := P.local_update !a ((i * 7) + 1)
  done;
  for i = 0 to 40 do
    b := P.local_update !b ((i * 11) + 2)
  done;
  let buf = Buffer.create 4096 in
  let record m = Buffer.add_string buf (Codec.encode_to_string P.message_codec m) in
  let nodes = [| !a; !b |] in
  let queue = Queue.create () in
  let n, msgs = P.tick nodes.(0) in
  nodes.(0) <- n;
  List.iter (fun (d, m) -> Queue.add (0, d, m) queue) msgs;
  let steps = ref 0 in
  while (not (Queue.is_empty queue)) && !steps < 10_000 do
    incr steps;
    let src, dst, m = Queue.pop queue in
    record m;
    let n, replies = P.handle nodes.(dst) ~src m in
    nodes.(dst) <- n;
    List.iter (fun (d, m') -> Queue.add (dst, d, m') queue) replies
  done;
  check "harvest cascade went quiet" true (Queue.is_empty queue);
  check "harvest converged" true
    (Gset.Of_int.equal (P.state nodes.(0)) (P.state nodes.(1)));
  Stdlib.Digest.to_hex (Stdlib.Digest.string (Buffer.contents buf))

let merkle_compat_tests =
  [
    Alcotest.test_case "merkle message stream bytes are pinned" `Quick
      (fun () ->
        Alcotest.(check string)
          "MD5 of the deterministic reconcile stream"
          "079996b6ac4348871f9c4a9926dcc0e2" (harvest_merkle_stream ()));
  ]

let () =
  Alcotest.run "digest"
    [
      ("hash", hash_tests);
      ("bloom", bloom_tests);
      ("iblt", iblt_tests);
      ("merkle byte-compat", merkle_compat_tests);
    ]
