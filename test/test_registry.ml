(* Engine-layer tests: the protocol × CRDT registry, the replica driver,
   and the trace layer.

   The headline check is registry exhaustiveness: every registered
   protocol instantiates against every registered CRDT (minus the
   registry's own declared exclusions), ticks, and moves a message
   between two driver replicas.  That is what backs the claim that
   `crdtsync serve` accepts any registered cell — a protocol added to
   the registry is covered here without edits. *)

open Crdt_sim
module Registry = Crdt_engine.Registry
module Trace = Crdt_engine.Trace

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let contains ~needle hay =
  let ls = String.length needle and lm = String.length hay in
  let rec go i = i + ls <= lm && (String.sub hay i ls = needle || go (i + 1)) in
  go 0

(* -- registry surface --------------------------------------------------- *)

let expected_protocols =
  [
    "state-based"; "delta-classic"; "delta-bp"; "delta-rr"; "delta-bp+rr";
    "delta-bp+rr-ack"; "scuttlebutt"; "scuttlebutt-gc"; "op-based"; "merkle";
    "conflict-sync";
  ]

let expected_crdts = [ "gset"; "gcounter"; "gmap"; "orset" ]

let surface =
  [
    Alcotest.test_case "protocol catalogue and its order are stable" `Quick
      (fun () ->
        Alcotest.(check (list string))
          "names" expected_protocols Registry.protocol_names);
    Alcotest.test_case "crdt catalogue is stable" `Quick (fun () ->
        Alcotest.(check (list string)) "names" expected_crdts Registry.crdt_names);
    Alcotest.test_case "registry names match the protocol instances" `Quick
      (fun () ->
        (* The registry hardcodes the display name next to the functor;
           this pins them together so they cannot drift. *)
        List.iter
          (fun maker ->
            let module P =
              (val Registry.instantiate maker
                     (module Crdt_core.Gcounter : Crdt_proto.Protocol_intf.CRDT
                       with type t = Crdt_core.Gcounter.t
                        and type op = Crdt_core.Gcounter.op))
            in
            check_string "name" (Registry.protocol_name maker) P.protocol_name)
          Registry.protocols);
    Alcotest.test_case "find_protocol rejects unknown names helpfully" `Quick
      (fun () ->
        check "raises" true
          (try
             ignore (Registry.find_protocol "gossip");
             false
           with Invalid_argument msg ->
             contains ~needle:"gossip" msg
             && contains ~needle:"delta-bp+rr" msg));
    Alcotest.test_case "find_crdt rejects unknown names helpfully" `Quick
      (fun () ->
        check "raises" true
          (try
             ignore (Registry.find_crdt "rga");
             false
           with Invalid_argument msg ->
             contains ~needle:"rga" msg && contains ~needle:"gset" msg));
    Alcotest.test_case "capabilities are readable for every protocol" `Quick
      (fun () ->
        List.iter
          (fun maker ->
            let caps = Registry.capabilities maker in
            (* BP+RR-ack declares loss tolerance; plain BP+RR does not. *)
            match Registry.protocol_name maker with
            | "delta-bp+rr-ack" ->
                check "ack tolerates drop" true
                  caps.Crdt_proto.Protocol_intf.tolerates_drop
            | "delta-bp+rr" ->
                check "bp+rr no drop" false
                  caps.Crdt_proto.Protocol_intf.tolerates_drop
            | _ -> ())
          Registry.protocols);
  ]

(* -- exhaustiveness: every cell instantiates and exchanges a message ---- *)

(* One protocol × CRDT cell: build two driver replicas, apply the
   registry's serve workload on one, tick it, deliver its messages to
   the other.  Replies are delivered back so digest/pairs protocols
   exercise their full exchange. *)
let smoke_cell (spec : Registry.crdt_spec) (maker : Registry.proto) =
  let module S = (val spec) in
  let module P =
    (val Registry.instantiate maker
           (module S.C : Crdt_proto.Protocol_intf.CRDT
             with type t = S.C.t
              and type op = S.C.op))
  in
  let module D = Crdt_engine.Driver.Make (P) in
  let counters = Trace.make_counters () in
  let sink = Trace.counting counters in
  let a = D.create ~sink ~id:0 ~neighbors:[ 1 ] ~total:2 () in
  let b = D.create ~sink ~id:1 ~neighbors:[ 0 ] ~total:2 () in
  let applied = D.apply a (S.serve_ops ~id:0 ~tick:0 (D.state a)) in
  check "cell applies ops" true (applied > 0);
  (* Run a few tick/deliver rounds so at least one protocol message
     crosses (scuttlebutt needs digest → pairs, merkle root → walk). *)
  let drivers = [| a; b |] in
  let inbox = [| Queue.create (); Queue.create () |] in
  for round = 0 to 3 do
    Array.iteri
      (fun i d ->
        D.tick d ~round ~emit:(fun ~dest msg ->
            check_int "dest in range" (1 - i) dest;
            Queue.add (i, msg) inbox.(dest)))
      drivers;
    Array.iteri
      (fun i q ->
        while not (Queue.is_empty q) do
          let src, msg = Queue.pop q in
          D.deliver drivers.(i) ~round ~src
            ~emit:(fun ~dest msg -> Queue.add (i, msg) inbox.(dest))
            msg
        done)
      inbox
  done;
  check "cell moved messages" true (counters.Trace.messages > 0);
  check "cell delivered" true (counters.Trace.delivered > 0)

let exhaustive =
  List.concat_map
    (fun spec ->
      let module S = (val spec : Registry.CRDT_SPEC) in
      List.filter_map
        (fun maker ->
          let proto = Registry.protocol_name maker in
          match S.excluded proto with
          | Some _ -> None
          | None ->
              Some
                (Alcotest.test_case
                   (Printf.sprintf "%s × %s" proto S.name)
                   `Quick
                   (fun () -> smoke_cell spec maker)))
        Registry.protocols)
    Registry.crdts

let exclusions =
  [
    Alcotest.test_case "no cell is excluded (orset runs op-based)" `Quick
      (fun () ->
        (* The orset workload removes a deterministically named element
           (node 0's own add from three rounds earlier), so op-based
           replay reproduces it and the old exclusion is gone: the full
           protocol × CRDT matrix is live. *)
        List.iter
          (fun spec ->
            let module S = (val spec : Registry.CRDT_SPEC) in
            List.iter
              (fun proto ->
                let p = Registry.protocol_name proto in
                check
                  (Printf.sprintf "%s x %s allowed" p S.name)
                  true
                  (Option.is_none (S.excluded p)))
              Registry.protocols)
          Registry.crdts);
  ]

(* -- driver state machine ----------------------------------------------- *)

module Gc = Crdt_core.Gcounter

let driver =
  [
    Alcotest.test_case "apply counts ops and sets dirty" `Quick (fun () ->
        let maker = Registry.find_protocol "state-based" in
        let module P =
          (val Registry.instantiate maker
                 (module Gc : Crdt_proto.Protocol_intf.CRDT
                   with type t = Gc.t
                    and type op = Gc.op))
        in
        let module D = Crdt_engine.Driver.Make (P) in
        let d = D.create ~id:0 ~neighbors:[ 1 ] ~total:2 () in
        check "fresh not dirty" false (D.dirty d);
        check_int "applied" 2 (D.apply d [ Gc.Inc 1; Gc.Inc 2 ]);
        check "dirty after apply" true (D.dirty d);
        D.clear_dirty d;
        check "cleared" false (D.dirty d);
        check_int "cumulative" 2 (D.ops_applied d));
    Alcotest.test_case "crash makes the replica dark" `Quick (fun () ->
        let maker = Registry.find_protocol "state-based" in
        let module P =
          (val Registry.instantiate maker
                 (module Gc : Crdt_proto.Protocol_intf.CRDT
                   with type t = Gc.t
                    and type op = Gc.op))
        in
        let module D = Crdt_engine.Driver.Make (P) in
        let d = D.create ~id:0 ~neighbors:[ 1 ] ~total:2 () in
        D.crash d ~round:1;
        check "down" true (D.down d);
        check_int "no ops while down" 0 (D.apply d [ Gc.Inc 1 ]);
        let sent = ref 0 in
        D.tick d ~round:1 ~emit:(fun ~dest:_ _ -> incr sent);
        check_int "no tick traffic while down" 0 !sent;
        D.recover d ~round:2;
        check "up" false (D.down d);
        check "dirty after recover" true (D.dirty d));
    Alcotest.test_case "changed-based dirty tracking on delivery" `Quick
      (fun () ->
        let maker = Registry.find_protocol "state-based" in
        let module P =
          (val Registry.instantiate maker
                 (module Gc : Crdt_proto.Protocol_intf.CRDT
                   with type t = Gc.t
                    and type op = Gc.op))
        in
        let module D = Crdt_engine.Driver.Make (P) in
        let changed a b = not (Gc.equal a b) in
        let a = D.create ~id:0 ~neighbors:[ 1 ] ~total:2 () in
        let b = D.create ~changed ~id:1 ~neighbors:[ 0 ] ~total:2 () in
        ignore (D.apply a [ Gc.Inc 5 ]);
        let inbox = Queue.create () in
        D.tick a ~round:0 ~emit:(fun ~dest:_ msg -> Queue.add msg inbox);
        check "a sent its state" false (Queue.is_empty inbox);
        D.deliver b ~round:0 ~src:0
          ~emit:(fun ~dest:_ _ -> ())
          (Queue.pop inbox);
        check "b dirty after inflating delivery" true (D.dirty b);
        D.clear_dirty b;
        (* Redelivering the same state is idempotent: no dirt. *)
        ignore (D.apply a []);
        let inbox2 = Queue.create () in
        D.tick a ~round:1 ~emit:(fun ~dest:_ msg -> Queue.add msg inbox2);
        D.deliver b ~round:1 ~src:0
          ~emit:(fun ~dest:_ _ -> ())
          (Queue.pop inbox2);
        check "idempotent delivery leaves b clean" false (D.dirty b));
  ]

(* -- trace layer -------------------------------------------------------- *)

(* The lines [Trace.jsonl] writes for the sink calls [f] makes. *)
let jsonl_lines f =
  let path = Filename.temp_file "trace" ".jsonl" in
  let oc = open_out path in
  f (Trace.jsonl oc);
  close_out oc;
  let ic = open_in path in
  let rec read acc =
    match input_line ic with
    | line -> read (line :: acc)
    | exception End_of_file -> List.rev acc
  in
  let lines = read [] in
  close_in ic;
  Sys.remove path;
  lines

let trace =
  [
    Alcotest.test_case "counting sink implements the Metrics discipline"
      `Quick (fun () ->
        let c = Trace.make_counters () in
        let s = Trace.counting c in
        s.Trace.send ~src:0 ~dest:1 ~round:0 ~weight:9 ~metadata:9
          ~payload_bytes:9 ~metadata_bytes:9 ~wire_bytes:9;
        check_int "send only bumps sent" 0 c.Trace.messages;
        check_int "sent" 1 c.Trace.sent;
        s.Trace.recv ~node:1 ~src:0 ~round:0 ~weight:2 ~metadata:3
          ~payload_bytes:16 ~metadata_bytes:24 ~wire_bytes:11;
        check_int "messages" 1 c.Trace.messages;
        check_int "payload" 2 c.Trace.payload;
        check_int "metadata" 3 c.Trace.metadata;
        check_int "payload_bytes" 16 c.Trace.payload_bytes;
        check_int "metadata_bytes" 24 c.Trace.metadata_bytes;
        check_int "wire_bytes" 11 c.Trace.wire_bytes;
        s.Trace.deliver ~node:1 ~src:0 ~round:0;
        s.Trace.deliver ~node:1 ~src:0 ~round:0;
        check_int "delivered (duplication)" 2 c.Trace.delivered;
        s.Trace.drop ~node:1 ~src:0 ~round:0;
        s.Trace.hold ~node:1 ~src:0 ~round:0;
        s.Trace.cut ~node:1 ~src:0 ~round:0;
        check_int "dropped" 1 c.Trace.dropped;
        check_int "held" 1 c.Trace.held;
        check_int "partitioned" 1 c.Trace.partitioned;
        Trace.reset_counters c;
        check_int "reset" 0 c.Trace.messages);
    Alcotest.test_case "tee fans out and widens detail" `Quick (fun () ->
        let c1 = Trace.make_counters () and c2 = Trace.make_counters () in
        let t = Trace.tee (Trace.counting c1) (Trace.counting c2) in
        check "counting sinks are cheap" false t.Trace.detailed;
        let detailed =
          Trace.tee (Trace.counting c1) { Trace.null with detailed = true }
        in
        check "a detailed sink forces detail" true detailed.Trace.detailed;
        t.Trace.recv ~node:0 ~src:1 ~round:0 ~weight:1 ~metadata:0
          ~payload_bytes:8 ~metadata_bytes:0 ~wire_bytes:6;
        check_int "both counted" 1 c1.Trace.messages;
        check_int "both counted'" 1 c2.Trace.messages);
    Alcotest.test_case "jsonl writes one-line JSON per event" `Quick
      (fun () ->
        let send (s : Trace.sink) =
          s.send ~src:0 ~dest:2 ~round:7 ~weight:1 ~metadata:0
            ~payload_bytes:8 ~metadata_bytes:0 ~wire_bytes:6
        in
        Alcotest.(check (list string))
          "send"
          [
            {|{"ev":"send","src":0,"dest":2,"round":7,"weight":1,"metadata":0,"payload_bytes":8,"metadata_bytes":0,"wire_bytes":6}|};
          ]
          (jsonl_lines send);
        Alcotest.(check (list string))
          "meta escapes"
          [ {|{"ev":"meta","note":"a\"b\nc"}|} ]
          (jsonl_lines (fun s -> s.meta "a\"b\nc")));
    Alcotest.test_case "jsonl sees the full driver cycle" `Quick (fun () ->
        let maker = Registry.find_protocol "delta-bp+rr" in
        let module P =
          (val Registry.instantiate maker
                 (module Gc : Crdt_proto.Protocol_intf.CRDT
                   with type t = Gc.t
                    and type op = Gc.op))
        in
        let module D = Crdt_engine.Driver.Make (P) in
        let lines =
          jsonl_lines (fun sink ->
              let a = D.create ~sink ~id:0 ~neighbors:[ 1 ] ~total:2 () in
              let b = D.create ~sink ~id:1 ~neighbors:[ 0 ] ~total:2 () in
              ignore (D.apply a [ Gc.Inc 1 ]);
              let inbox = Queue.create () in
              D.tick a ~round:0 ~emit:(fun ~dest:_ msg -> Queue.add msg inbox);
              Queue.iter
                (fun msg ->
                  D.deliver b ~round:0 ~src:0 ~emit:(fun ~dest:_ _ -> ()) msg)
                inbox;
              D.finish b ~round:1)
        in
        let kinds =
          List.map (fun l -> Scanf.sscanf l {|{"ev":"%s@"|} Fun.id) lines
        in
        check "tick seen" true (List.mem "tick" kinds);
        check "send seen" true (List.mem "send" kinds);
        check "recv seen" true (List.mem "recv" kinds);
        check "deliver seen" true (List.mem "deliver" kinds);
        check "done seen" true (List.mem "done" kinds);
        (* Send lines carry real costs because the JSONL sink is
           detailed. *)
        let send_wire_bytes l =
          Scanf.sscanf l
            {|{"ev":"send","src":%_d,"dest":%_d,"round":%_d,"weight":%_d,"metadata":%_d,"payload_bytes":%_d,"metadata_bytes":%_d,"wire_bytes":%d}|}
            Fun.id
        in
        check "send costs computed" true
          (List.exists
             (fun l -> contains ~needle:{|"ev":"send"|} l && send_wire_bytes l > 0)
             lines));
  ]

(* -- one accounting path: trace totals = Metrics totals ----------------- *)

let accounting =
  [
    Alcotest.test_case "a user sink's tallies equal the Metrics summary"
      `Quick (fun () ->
        let module Si = Crdt_core.Gset.Of_int in
        let maker = Registry.find_protocol "delta-bp+rr" in
        let module P =
          (val Registry.instantiate maker
                 (module Si : Crdt_proto.Protocol_intf.CRDT
                   with type t = Si.t
                    and type op = Si.op))
        in
        let module R = Runner.Make (P) in
        let seen = Trace.make_counters () in
        let res =
          R.run ~bytes:Metrics.Exact ~sink:(Trace.counting seen)
            ~equal:Si.equal
            ~topology:(Topology.ring 4) ~rounds:5
            ~ops:(fun ~round ~node _ -> [ (round * 100) + node ])
            ()
        in
        let s = R.full_summary res in
        check "converged" true res.R.converged;
        check_int "messages" s.Metrics.totals.messages seen.Trace.messages;
        check_int "payload" s.Metrics.totals.payload seen.Trace.payload;
        check_int "wire bytes" s.Metrics.totals.wire_bytes seen.Trace.wire_bytes);
    Alcotest.test_case "a sink requires the sequential engine" `Quick
      (fun () ->
        let module Si = Crdt_core.Gset.Of_int in
        let maker = Registry.find_protocol "delta-bp+rr" in
        let module P =
          (val Registry.instantiate maker
                 (module Si : Crdt_proto.Protocol_intf.CRDT
                   with type t = Si.t
                    and type op = Si.op))
        in
        let module R = Runner.Make (P) in
        check "raises" true
          (try
             ignore
               (R.run ~domains:2 ~sink:Trace.null ~equal:Si.equal
                  ~topology:(Topology.ring 4) ~rounds:2
                  ~ops:(fun ~round:_ ~node _ -> [ node ])
                  ());
             false
           with Invalid_argument _ -> true));
  ]

let () =
  Alcotest.run "engine registry"
    [
      ("registry surface", surface);
      ("protocol × CRDT exhaustiveness", exhaustive);
      ("exclusions", exclusions);
      ("driver", driver);
      ("trace", trace);
      ("accounting", accounting);
    ]
