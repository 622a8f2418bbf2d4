(* Focused tests for the ack-based delta buffer (the paper's footnote in
   Section IV: on lossy channels, tag δ-buffer entries with sequence
   numbers and evict them only once every neighbor acknowledged). *)

open Crdt_core
open Crdt_proto

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

module S = Gset.Of_string
module P = Delta_sync.Make (S) (Delta_sync.Ack_config)

(* Pull the single message addressed to [dest] out of a tick result. *)
let to_dest dest msgs = List.assoc_opt dest msgs

let tests =
  [
    Alcotest.test_case "unacked δ-groups are retransmitted" `Quick (fun () ->
        let a = P.init ~id:0 ~neighbors:[ 1 ] ~total:2 in
        let a = P.local_update a "x" in
        let a, msgs = P.tick a in
        check "first send" true (to_dest 1 msgs <> None);
        (* The message is lost; the next tick must resend it. *)
        let a, msgs = P.tick a in
        (match to_dest 1 msgs with
        | Some m -> check_int "resent payload" 1 (P.payload_weight m)
        | None -> Alcotest.fail "expected a retransmission");
        ignore a);
    Alcotest.test_case "acked δ-groups stop being sent" `Quick (fun () ->
        let a = P.init ~id:0 ~neighbors:[ 1 ] ~total:2 in
        let b = P.init ~id:1 ~neighbors:[ 0 ] ~total:2 in
        let a = P.local_update a "x" in
        let a, msgs = P.tick a in
        let m = Option.get (to_dest 1 msgs) in
        let b, replies = P.handle b ~src:0 m in
        check "receiver acks" true (replies <> []);
        check "receiver applied" true (S.mem "x" (P.state b));
        (* Deliver the ack back to a; nothing further flows. *)
        let a =
          List.fold_left
            (fun a (dest, reply) ->
              check_int "ack goes to a" 0 dest;
              fst (P.handle a ~src:1 reply))
            a replies
        in
        let _, msgs = P.tick a in
        check "silence after ack" true (to_dest 1 msgs = None));
    Alcotest.test_case "memory drains only after the ack" `Quick (fun () ->
        let a = P.init ~id:0 ~neighbors:[ 1 ] ~total:2 in
        let b = P.init ~id:1 ~neighbors:[ 0 ] ~total:2 in
        let a = P.local_update a "x" in
        let before = (P.memory a).weight in
        let a, msgs = P.tick a in
        (* Without the ack the buffer entry survives the tick. *)
        check_int "still buffered" before (P.memory a).weight;
        let _, replies = P.handle b ~src:0 (Option.get (to_dest 1 msgs)) in
        let a =
          List.fold_left
            (fun a (_, reply) -> fst (P.handle a ~src:1 reply))
            a replies
        in
        let a, _ = P.tick a in
        check "drained" true ((P.memory a).weight < before));
    Alcotest.test_case "duplicated acks are harmless" `Quick (fun () ->
        let a = P.init ~id:0 ~neighbors:[ 1 ] ~total:2 in
        let b = P.init ~id:1 ~neighbors:[ 0 ] ~total:2 in
        let a = P.local_update a "x" in
        let a, msgs = P.tick a in
        let _, replies = P.handle b ~src:0 (Option.get (to_dest 1 msgs)) in
        let ack = snd (List.hd replies) in
        let a, _ = P.handle a ~src:1 ack in
        let a, _ = P.handle a ~src:1 ack in
        let _, msgs = P.tick a in
        check "no resend" true (to_dest 1 msgs = None));
    Alcotest.test_case "BP still filters the origin under ack mode" `Quick
      (fun () ->
        (* b's δ-group reaches a; a must not send it back to b even
           though b never acked it (it is its origin). *)
        let a = P.init ~id:0 ~neighbors:[ 1 ] ~total:2 in
        let b = P.init ~id:1 ~neighbors:[ 0 ] ~total:2 in
        let b = P.local_update b "y" in
        let _, msgs = P.tick b in
        let a, _ = P.handle a ~src:1 (Option.get (to_dest 0 msgs)) in
        let _, msgs = P.tick a in
        (* Only the ack-free path matters: any Delta to b must be empty
           of y, i.e. there is no Delta at all (a has no local ops). *)
        check "nothing delta-worthy for b" true
          (match to_dest 1 msgs with
          | None -> true
          | Some m -> P.payload_weight m = 0));
  ]

(* Eviction under the per-origin buffer representation: an entry leaves
   the (seq-tagged, ack-mode-only) buffer exactly when every neighbor
   that must receive it — under BP, everyone except its origin — has
   acked past it, even when some deliveries are dropped. *)
let eviction_tests =
  (* Deliver [a]'s pending messages to the peers listed in [deliver]
     (dropping the rest), flow the acks back, and return the updated
     nodes. *)
  let exchange a peers deliver =
    let a, msgs = P.tick a in
    List.fold_left
      (fun (a, peers) (dest, m) ->
        if not (List.mem dest deliver) then (a, peers) (* dropped *)
        else
          let peer = List.assoc dest peers in
          let peer, replies = P.handle peer ~src:0 m in
          let a =
            List.fold_left
              (fun a (_, reply) -> fst (P.handle a ~src:dest reply))
              a replies
          in
          (a, (dest, peer) :: List.remove_assoc dest peers))
      (a, peers) msgs
  in
  [
    Alcotest.test_case "entry survives until ALL non-origin neighbors ack"
      `Quick (fun () ->
        let a = P.init ~id:0 ~neighbors:[ 1; 2 ] ~total:3 in
        let peers =
          [
            (1, P.init ~id:1 ~neighbors:[ 0 ] ~total:3);
            (2, P.init ~id:2 ~neighbors:[ 0 ] ~total:3);
          ]
        in
        let a = P.local_update a "x" in
        let buffered = (P.memory a).weight in
        (* Round 1: the message to 2 is dropped; only 1 acks. *)
        let a, peers = exchange a peers [ 1 ] in
        check_int "kept while 2 is missing it" buffered (P.memory a).weight;
        (* Round 2: 2 finally receives and acks; the entry is evicted on
           the next tick. *)
        let a, _ = exchange a peers [ 2 ] in
        let a, _ = P.tick a in
        check "evicted once both acked" true ((P.memory a).weight < buffered));
    Alcotest.test_case "repeated drops never evict prematurely" `Quick
      (fun () ->
        let a = P.init ~id:0 ~neighbors:[ 1; 2 ] ~total:3 in
        let peers =
          [
            (1, P.init ~id:1 ~neighbors:[ 0 ] ~total:3);
            (2, P.init ~id:2 ~neighbors:[ 0 ] ~total:3);
          ]
        in
        let a = P.local_update a "x" in
        let buffered = (P.memory a).weight in
        (* Three rounds of total loss: the entry must stay put and keep
           being retransmitted to both neighbors. *)
        let a =
          List.fold_left
            (fun a _ ->
              let a, msgs = P.tick a in
              check_int "still retransmitting to both" 2 (List.length msgs);
              check_int "still buffered" buffered (P.memory a).weight;
              a)
            a [ (); (); () ]
        in
        ignore (exchange a peers [ 1; 2 ]));
    Alcotest.test_case "origin's own ack is not required (BP)" `Quick
      (fun () ->
        (* b's δ-group reaches a; under BP a never sends it back to b, so
           the entry (origin 1) must be evicted once neighbor 2 — the only
           replica that still needs it — acks, even though 1 never does. *)
        let a = P.init ~id:0 ~neighbors:[ 1; 2 ] ~total:3 in
        let b = P.init ~id:1 ~neighbors:[ 0 ] ~total:3 in
        let c = P.init ~id:2 ~neighbors:[ 0 ] ~total:3 in
        let b = P.local_update b "y" in
        let _, msgs = P.tick b in
        let a, replies = P.handle a ~src:1 (Option.get (to_dest 0 msgs)) in
        (* Drop a's ack to b; it is irrelevant to a's buffer. *)
        ignore replies;
        let state_w = S.cardinal (P.state a) in
        check "y buffered at a" true ((P.memory a).weight > state_w);
        let a, msgs = P.tick a in
        check "forwarded to 2 only" true
          (to_dest 2 msgs <> None && to_dest 1 msgs = None);
        let _, replies = P.handle c ~src:0 (Option.get (to_dest 2 msgs)) in
        let a =
          List.fold_left
            (fun a (_, reply) -> fst (P.handle a ~src:2 reply))
            a replies
        in
        let a, _ = P.tick a in
        check_int "evicted after 2's ack alone" state_w (P.memory a).weight);
  ]

let () =
  Alcotest.run "ack-mode delta buffer"
    [ ("ack mode", tests); ("eviction under drops", eviction_tests) ]
