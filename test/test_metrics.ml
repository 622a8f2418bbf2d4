(* Unit tests for the measurement plumbing. *)

open Crdt_sim

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let round ?(messages = 0) ?(payload = 0) ?(metadata = 0) ?(payload_bytes = 0)
    ?(metadata_bytes = 0) ?(wire_bytes = 0) ?(memory_weight = 0)
    ?(memory_bytes = 0) ?(metadata_memory_bytes = 0) ?(ops_applied = 0)
    ?(dropped = 0) ?(held = 0) ?(partitioned = 0) ?(sync_rounds = 0)
    ?(digest_bytes = 0) () : Metrics.round =
  {
    (Crdt_engine.Trace.make_counters ()) with
    messages;
    payload;
    metadata;
    payload_bytes;
    metadata_bytes;
    wire_bytes;
    memory_weight;
    memory_bytes;
    metadata_memory_bytes;
    ops_applied;
    dropped;
    held;
    partitioned;
    sync_rounds;
    digest_bytes;
  }

let tests =
  [
    Alcotest.test_case "summarize totals and averages" `Quick (fun () ->
        let rounds =
          [|
            round ~messages:2 ~payload:10 ~metadata:1 ~memory_weight:4 ();
            round ~messages:4 ~payload:30 ~metadata:3 ~memory_weight:8 ();
          |]
        in
        let s = Metrics.summarize rounds in
        check_int "messages" 6 s.totals.messages;
        check_int "payload" 40 s.totals.payload;
        check_int "metadata" 4 s.totals.metadata;
        check "avg memory" true (s.avg_memory_weight = 6.);
        check_int "max memory" 8 s.max_memory_weight;
        check_int "rounds" 2 s.rounds);
    Alcotest.test_case "empty run summarizes to zeros" `Quick (fun () ->
        let s = Metrics.summarize [||] in
        check_int "payload" 0 s.totals.payload;
        check "avg" true (s.avg_memory_weight = 0.));
    Alcotest.test_case "total transmission adds payload and metadata" `Quick
      (fun () ->
        let s = Metrics.summarize [| round ~payload:7 ~metadata:3 () |] in
        check_int "total" 10 (Metrics.total_transmission s));
    Alcotest.test_case "metadata fraction (Section V-B2)" `Quick (fun () ->
        let s =
          Metrics.summarize
            [| round ~payload_bytes:25 ~metadata_bytes:75 () |]
        in
        check "75%" true (Metrics.metadata_fraction s = 0.75));
    Alcotest.test_case "metadata fraction of silence is 0" `Quick (fun () ->
        check "zero" true (Metrics.metadata_fraction (Metrics.summarize [||]) = 0.));
    Alcotest.test_case "ops totals and throughput" `Quick (fun () ->
        let s =
          Metrics.summarize
            [|
              round ~messages:10 ~ops_applied:4 ();
              round ~messages:20 ~ops_applied:6 ();
            |]
        in
        check_int "total ops" 10 s.totals.ops_applied;
        check "ops/sec" true (Metrics.ops_per_sec s ~seconds:2. = 5.);
        check "msgs/sec" true (Metrics.msgs_per_sec s ~seconds:2. = 15.);
        check "nan on zero interval" true
          (Float.is_nan (Metrics.ops_per_sec s ~seconds:0.)));
    Alcotest.test_case "fault counters are summed" `Quick (fun () ->
        let s =
          Metrics.summarize
            [|
              round ~dropped:3 ~held:1 ~partitioned:2 ();
              round ~dropped:4 ~partitioned:5 ();
            |]
        in
        check_int "dropped" 7 s.totals.dropped;
        check_int "held" 1 s.totals.held;
        check_int "partitioned" 7 s.totals.partitioned);
    Alcotest.test_case "ratios" `Quick (fun () ->
        check "ratio" true (Metrics.ratio ~baseline:10 25 = 2.5);
        check "nan on zero baseline" true
          (Float.is_nan (Metrics.ratio ~baseline:0 25));
        check "fratio" true (Metrics.fratio ~baseline:2. 5. = 2.5));
  ]

let () = Alcotest.run "metrics" [ ("metrics", tests) ]
