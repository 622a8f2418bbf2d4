(* Benchmark entry point: run one workload for a fixed time, check its
   outputs, and print its metrics.

     main.exe --workload NAME --seed N --seconds S --trace 0|1
     main.exe --smoke

   The last line of standard output is one JSON object with the keys
   correct, attempted, failed and metrics.  Untraced runs (--trace 0)
   report the end-to-end metrics; traced runs (--trace 1) report the
   per-layer metrics.  Earlier lines are a human-readable report and a
   JSON line with provenance, sample counts and the reconciliation of
   layer self times.  See NOTES.md for what each workload and metric is
   for. *)

let workloads = [ "retwis-mesh-sim"; "gcounter-pair-serve"; "gmap-durable-restart" ]

let end_to_end =
  [
    ("setup_s", "s"); ("ops_per_s", "1/s"); ("cpu_ms_per_kop", "ms");
    ("visible_p50_ms", "ms"); ("visible_p90_ms", "ms");
    ("wire_bytes_per_op", "B/op"); ("peak_rss_mb", "MiB"); ("catchup_s", "s");
  ]

let per_layer =
  [
    ("core.us_per_op", "us"); ("core.calls_per_op", "count");
    ("core.equal_us_per_op", "us"); ("core.delta_us_per_op", "us");
    ("core.alloc_words_per_op", "words");
    ("proto.us_per_op", "us"); ("proto.msgs_per_op", "count");
    ("proto.payload_elems_per_op", "count");
    ("proto.alloc_words_per_op", "words"); ("proto.visible_rounds_p90", "rounds");
    ("digest.bytes_per_op", "B"); ("digest.sync_rounds", "count");
    ("digest.reconcile_bytes", "B");
    ("wire.us_per_op", "us"); ("wire.encodes_per_msg", "count");
    ("wire.decodes_per_msg", "count"); ("wire.alloc_words_per_op", "words");
    ("engine.us_per_op", "us"); ("engine.alloc_words_per_op", "words");
    ("net.busy_us_per_op", "us"); ("net.idle_frac", "frac");
    ("net.writes_per_op", "count"); ("net.tick_p99_us", "us");
    ("net.gen_lag_p90_ms", "ms");
    ("store.append_us_p50", "us"); ("store.append_us_p90", "us");
    ("store.appends_per_op", "count"); ("store.bytes_per_op", "B");
    ("store.checkpoint_us_per_op", "us"); ("store.recover_ms", "ms");
    ("retwis.us_per_op", "us");
    ("bench.observe_us_per_op", "us"); ("bench.trace_overhead_frac", "frac");
  ]

type sizes = {
  sim : Wl_sim.params;
  counter : Wl_counter.params;
  durable : Wl_durable.params;
  reps : int;  (** measured repetitions of a paced workload per run. *)
  probes : int;  (** short set-up and catch-up probes per measured rep. *)
  probe_s : float;  (** operation time of one probe. *)
}

let full_sizes =
  {
    sim = Wl_sim.full;
    counter = Wl_counter.full;
    durable = Wl_durable.full;
    reps = 5;
    probes = 6;
    probe_s = 0.05;
  }

let smoke_sizes =
  {
    sim = Wl_sim.smoke;
    counter = Wl_counter.smoke;
    durable = Wl_durable.smoke;
    reps = 2;
    probes = 1;
    probe_s = 0.05;
  }

(* Plain and traced repetitions are measured; probes are short plain
   repetitions that add samples of set-up and catch-up time only. *)
type kind = Plain | Traced | Probe

(* Repetition [k] of [workload]: every repetition of a run draws its
   own inputs from the run's seed. *)
let rep sizes ~workload ~traced ~seed ~k ~seconds ~work =
  Span.on := traced;
  let seed = (seed * 1_000) + k in
  let r =
    match workload with
    | "retwis-mesh-sim" -> Wl_sim.run_rep ~traced ~seed sizes.sim
    | "gcounter-pair-serve" ->
        Wl_counter.run_rep ~traced ~seed ~seconds ~work sizes.counter
    | _ -> Wl_durable.run_rep ~traced ~seed ~seconds ~work sizes.durable
  in
  Span.on := false;
  r

(* The repetitions of one run.  A paced workload runs [sizes.reps]
   measured repetitions that share the time budget, each followed by
   [sizes.probes] probes; the simulator repeats its fixed op budget
   until the budget is spent.  A traced run alternates plain and traced
   repetitions, so the tracing overhead is measured against interleaved
   plain ones. *)
let plan sizes ~workload ~trace ~seed ~seconds ~work =
  let started = Measure.wall () in
  let reps = ref [] in
  let k = ref 0 in
  let next kind seconds =
    let traced = kind = Traced in
    let r = rep sizes ~workload ~traced ~seed ~k:!k ~seconds ~work in
    reps := (kind, r) :: !reps;
    incr k;
    Printf.eprintf "  rep %d%s: %d ops, %.3f s, setup %.6f s, catch-up %.6f s%s\n%!" !k
      (match kind with Plain -> "" | Traced -> " (traced)" | Probe -> " (probe)")
      r.Rep.ops r.Rep.span_s r.Rep.setup_s r.Rep.catchup_s
      (if r.Rep.gate = [] then "" else "  FAILED: " ^ String.concat "; " r.Rep.gate)
  in
  let measured i = if trace && i mod 2 = 1 then Traced else Plain in
  if workload = "retwis-mesh-sim" then begin
    let i = ref 0 in
    while !i < 4 || Measure.wall () -. started < seconds || (trace && !i mod 2 = 1) do
      next (measured !i) seconds;
      incr i
    done
  end
  else begin
    let n = if trace then 2 * ((sizes.reps + 1) / 2) else sizes.reps in
    for i = 0 to n - 1 do
      next (measured i) (seconds /. float_of_int sizes.reps);
      if not trace then
        for _ = 1 to sizes.probes do
          next Probe sizes.probe_s
        done
    done
  end;
  List.rev !reps

let of_kind kinds reps =
  List.filter_map (fun (k, r) -> if List.mem k kinds then Some r else None) reps

(* The simulator is CPU-bound on a host whose speed drifts by tens of
   percent over seconds.  Every repetition draws its own input, and the
   end-to-end figures come from the faster half of the repetitions, which
   tracks the code's cost more closely than the host's slow phases do. *)
let faster_half reps =
  let sorted = List.sort (fun a b -> Float.compare a.Rep.span_s b.Rep.span_s) reps in
  List.filteri (fun j _ -> j < (List.length sorted + 1) / 2) sorted

let median_of f reps = Measure.median (List.map f reps)
let pooled f reps =
  let s = Measure.samples () in
  List.iter (fun r -> Measure.append s (f r)) reps;
  s

let sum f reps = List.fold_left (fun acc r -> acc +. f r) 0. reps
let fi = float_of_int

(* Percentiles are reported with their sample counts, and refused (the
   run fails) when fewer than ten samples lie beyond them.  A layer a
   workload never exercises has no samples and reads 0. *)
type pcts = { mutable counts : (string * int) list; mutable refused : string list }

let pct acc name s p =
  acc.counts <- (name, Measure.count s) :: acc.counts;
  if Measure.count s = 0 then 0.
  else if Measure.beyond s p < 10 then begin
    acc.refused <-
      Printf.sprintf "%s: %d of %d samples lie beyond p%.0f; need 10" name
        (Measure.beyond s p) (Measure.count s) p
      :: acc.refused;
    0.
  end
  else Measure.percentile s p

let end_to_end_metrics ~workload reps =
  let acc = { counts = []; refused = [] } in
  let rs = of_kind [ Plain ] reps in
  let rs, all =
    if workload = "retwis-mesh-sim" then (faster_half rs, faster_half rs)
    else (rs, of_kind [ Plain; Probe ] reps)
  in
  let vis = pooled (fun r -> r.Rep.visible_ms) rs in
  if Measure.count vis = 0 then acc.refused <- "no visibility samples" :: acc.refused;
  let m =
    [
      ("setup_s", median_of (fun r -> r.Rep.setup_s) all);
      ("ops_per_s", median_of (fun r -> fi r.Rep.ops /. r.Rep.span_s) rs);
      ("cpu_ms_per_kop", median_of (fun r -> r.Rep.cpu_s *. 1e6 /. fi r.Rep.ops) rs);
      ("visible_p50_ms", pct acc "visible_p50_ms" vis 50.);
      ("visible_p90_ms", pct acc "visible_p90_ms" vis 90.);
      ("wire_bytes_per_op", median_of (fun r -> fi r.Rep.wire_bytes /. fi r.Rep.ops) rs);
      ("peak_rss_mb", Measure.peak_rss_mb ());
      ("catchup_s", median_of (fun r -> r.Rep.catchup_s) all);
    ]
  in
  (m, acc)

let per_layer_metrics ~workload reps =
  let acc = { counts = []; refused = [] } in
  let plain = of_kind [ Plain ] reps in
  let traced = of_kind [ Traced ] reps in
  let t = Span.totals () in
  let ops = sum (fun r -> fi r.Rep.ops) traced in
  let msgs = sum (fun r -> fi r.Rep.messages) traced in
  let us ns = fi ns /. 1000. /. ops in
  let self l = Span.layer_self_ns t l in
  let fn l n = Span.fn l n in
  let calls l n = fi t.Span.t_calls.(fn l n) in
  let serve = workload <> "retwis-mesh-sim" in
  let cpu = sum (fun r -> r.Rep.cpu_s) traced in
  let appends = pooled (fun r -> r.Rep.append_us) traced in
  let per_rep f = median_of f traced in
  let cpu_per_op rs = sum (fun r -> r.Rep.cpu_s) rs /. sum (fun r -> fi r.Rep.ops) rs in
  (* Reconciliation.  In the simulator every span nests inside the run
     span, so the layers' self times add up to its wall time and the
     engine's residual must not be negative.  In serve, process CPU
     minus the CPU-bound layers' self time is the event loop's busy
     time, which must not be negative either; store spans are mostly
     fsync waits and stay out of that subtraction. *)
  let cpu_bound_ns =
    List.fold_left (fun a l -> a + self l) 0 Span.[ Core; Proto; Wire; Retwis; Bench; Engine ]
  in
  let busy_ns = (cpu *. 1e9) -. fi cpu_bound_ns in
  let all_self = List.fold_left (fun a l -> a + self l) 0 Span.layers in
  let run_total = t.Span.t_total_ns.(fn Engine "run") in
  let recon =
    if serve then
      [ ("cpu_s", cpu); ("cpu_bound_self_s", fi cpu_bound_ns /. 1e9); ("net_busy_s", busy_ns /. 1e9) ]
    else
      [ ("run_wall_s", fi run_total /. 1e9); ("layer_self_sum_s", fi all_self /. 1e9);
        ("engine_self_s", fi (self Engine) /. 1e9) ]
  in
  if serve && busy_ns < 0. then
    acc.refused <-
      Printf.sprintf "layer self times exceed process CPU by %.3f s" (-.busy_ns /. 1e9)
      :: acc.refused;
  if (not serve) && (self Engine < 0 || abs (all_self - run_total) > 1_000_000) then
    acc.refused <- "layer self times do not add up to the run's wall time" :: acc.refused;
  let measured_ns = if serve then cpu *. 1e9 else fi run_total in
  let m =
    [
      ("core.us_per_op", us (self Core));
      ("core.calls_per_op", fi (Span.layer_calls t Core) /. ops);
      ("core.equal_us_per_op", us t.Span.t_self_ns.(fn Core "equal"));
      ("core.delta_us_per_op", us t.Span.t_self_ns.(fn Core "delta"));
      ("core.alloc_words_per_op", Span.layer_alloc t Core /. ops);
      ("proto.us_per_op", us (self Proto));
      ("proto.msgs_per_op", msgs /. ops);
      ("proto.payload_elems_per_op", sum (fun r -> fi r.Rep.payload) traced /. ops);
      ("proto.alloc_words_per_op", Span.layer_alloc t Proto /. ops);
      ( "proto.visible_rounds_p90",
        pct acc "proto.visible_rounds_p90" (pooled (fun r -> r.Rep.visible_rounds) traced) 90. );
      ("digest.bytes_per_op", sum (fun r -> fi r.Rep.digest_bytes) traced /. ops);
      ("digest.sync_rounds", per_rep (fun r -> fi r.Rep.sync_rounds));
      ("digest.reconcile_bytes", per_rep (fun r -> fi r.Rep.reconcile_bytes));
      ("wire.us_per_op", us (self Wire));
      ("wire.encodes_per_msg", (calls Wire "encode" +. calls Wire "message_wire_bytes") /. msgs);
      ("wire.decodes_per_msg", calls Wire "decode" /. msgs);
      ("wire.alloc_words_per_op", Span.layer_alloc t Wire /. ops);
      ("engine.us_per_op", us (self Engine));
      ("engine.alloc_words_per_op", Span.layer_alloc t Engine /. ops);
      ("net.busy_us_per_op", if serve then busy_ns /. 1000. /. ops else 0.);
      ( "net.idle_frac",
        if serve then 1. -. (cpu /. (2. *. sum (fun r -> r.Rep.span_s) traced)) else 0. );
      ("net.writes_per_op", sum (fun r -> fi r.Rep.writes) traced /. ops);
      ("net.tick_p99_us", if serve then per_rep (fun r -> r.Rep.tick_p99_us) else 0.);
      ( "net.gen_lag_p90_ms",
        pct acc "net.gen_lag_p90_ms" (pooled (fun r -> r.Rep.gen_lag_ms) traced) 90. );
      ("store.append_us_p50", pct acc "store.append_us_p50" appends 50.);
      ("store.append_us_p90", pct acc "store.append_us_p90" appends 90.);
      ("store.appends_per_op", fi (Measure.count appends) /. ops);
      ("store.bytes_per_op", sum (fun r -> fi r.Rep.append_bytes) traced /. ops);
      ("store.checkpoint_us_per_op", sum (fun r -> r.Rep.checkpoint_s) traced *. 1e6 /. ops);
      ("store.recover_ms", per_rep (fun r -> r.Rep.recover_ms));
      ("retwis.us_per_op", us (self Retwis));
      ("bench.observe_us_per_op", us (self Bench));
      ("bench.trace_overhead_frac", (cpu_per_op traced /. cpu_per_op plain) -. 1.);
    ]
  in
  (* The runtime's tick percentile rests on every tick of both replicas. *)
  if serve then
    acc.counts <- ("net.tick_p99_us", int_of_float (sum (fun r -> fi r.Rep.ticks) traced)) :: acc.counts;
  let observe_share = fi t.Span.t_self_ns.(fn Bench "observe") /. measured_ns in
  (m, acc, ("observe_share", observe_share) :: recon)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_obj fields = "{" ^ String.concat ", " (List.map (fun (k, v) -> json_string k ^ ": " ^ v) fields) ^ "}"

let metrics_json units m =
  json_obj
    (List.map
       (fun (name, unit) ->
         (name, json_obj [ ("value", Measure.num (List.assoc name m)); ("unit", json_string unit) ]))
       units)

let offered = function
  | "gcounter-pair-serve" ->
      let p = Wl_counter.full in
      (2 * p.k * 1000 / p.tick_ms, p.tick_ms)
  | "gmap-durable-restart" ->
      let p = Wl_durable.full in
      (2 * p.k * 1000 / p.tick_ms, p.tick_ms)
  | _ -> (0, 0)

(* Run one workload; returns whether it passed every gate. *)
let run_workload ?(quiet = false) sizes ~workload ~seed ~seconds ~trace =
  Span.reset ();
  let work = Printf.sprintf ".perfbench/%d" (Unix.getpid ()) in
  Measure.mkdirs work;
  let fstype = Measure.fs_type work in
  if Measure.memory_backed fstype then begin
    Printf.eprintf "error: work dir %s is on %s, not a disk-backed filesystem\n" work fstype;
    exit 2
  end;
  let reps =
    Fun.protect
      ~finally:(fun () -> Measure.remove_tree work)
      (fun () -> plan sizes ~workload ~trace ~seed ~seconds ~work)
  in
  (* The traced run's kept spans go to one file per workload and seed. *)
  let spans =
    if trace then begin
      let path = Printf.sprintf ".perfbench/spans-%s-%d.tsv" workload seed in
      let kept, dropped = Span.dump path in
      [ ("spans_file", json_string path); ("spans_kept", string_of_int kept);
        ("spans_not_kept", string_of_int dropped) ]
    end
    else []
  in
  let rs = List.map snd reps in
  let attempted = List.fold_left (fun acc r -> acc + r.Rep.ops) 0 rs in
  let failed = List.fold_left (fun acc r -> acc + r.Rep.failed) 0 rs in
  let gates = List.concat_map (fun r -> r.Rep.gate) rs in
  let metrics, units, acc, extra =
    if trace then
      let m, acc, recon = per_layer_metrics ~workload reps in
      (m, per_layer, acc, recon)
    else
      let m, acc = end_to_end_metrics ~workload reps in
      (m, end_to_end, acc, [])
  in
  let non_finite =
    List.filter_map
      (fun (name, v) ->
        if Float.is_finite v then None else Some (name ^ " is not a finite number"))
      metrics
  in
  let errors = gates @ List.rev acc.refused @ non_finite in
  let correct = errors = [] && failed = 0 in
  let rate, tick = offered workload in
  let report =
    json_obj
      ([
         ("workload", json_string workload);
         ("seed", string_of_int seed);
         ("seconds", Measure.num seconds);
         ("trace", string_of_bool trace);
         ("reps", string_of_int (List.length reps));
         ("cores", string_of_int (Measure.cores ()));
         ("os", json_string (Measure.host_os ()));
         ("ocaml_version", json_string Sys.ocaml_version);
         ("offered_ops_per_s", string_of_int rate);
         ("tick_ms", string_of_int tick);
         ( "fsync",
           json_string
             (if workload = "gmap-durable-restart" then
                Crdt_store.Store.fsync_policy_name Wl_durable.fsync
              else "none") );
         ("data_dir_fs", json_string fstype);
         ( "transport",
           json_string
             (if workload = "retwis-mesh-sim" then "simulator"
              else "loopback unix sockets") );
         ( "samples",
           json_obj (List.rev_map (fun (k, n) -> (k, string_of_int n)) acc.counts) );
         ("errors", "[" ^ String.concat ", " (List.map json_string errors) ^ "]");
       ]
      @ spans
      @ List.map (fun (k, v) -> (k, Measure.num v)) extra)
  in
  if quiet then List.iter (fun e -> Printf.eprintf "  FAILED: %s\n" e) errors
  else begin
    Printf.printf "%s  seed %d  %s run, %d reps, %d ops, %d failed\n" workload seed
      (if trace then "traced" else "plain")
      (List.length reps) attempted failed;
    List.iter
      (fun (name, unit) ->
        Printf.printf "  %-28s %14.6g %s\n" name (List.assoc name metrics) unit)
      units;
    List.iter (fun (k, v) -> Printf.printf "  %-28s %14.6g\n" k v) extra;
    if trace then begin
      let t = Span.totals () in
      Printf.printf "  %-28s %12s %12s %14s\n" "span" "calls" "self_s" "alloc_words";
      Array.iteri
        (fun f (l, name) ->
          if t.Span.t_calls.(f) > 0 then
            Printf.printf "  %-28s %12d %12.6f %14.0f\n"
              (Span.layer_name l ^ "." ^ name)
              t.Span.t_calls.(f)
              (float_of_int t.Span.t_self_ns.(f) /. 1e9)
              t.Span.t_self_alloc.(f))
        Span.fns
    end;
    List.iter (fun e -> Printf.printf "  FAILED: %s\n" e) errors;
    print_endline report
  end;
  let result =
    json_obj
      [
        ("correct", string_of_bool correct);
        ("attempted", string_of_int (max 1 attempted));
        ("failed", string_of_int (if correct then failed else max failed 1));
        ("metrics", if correct then metrics_json units metrics else "{}");
      ]
  in
  (correct, result, List.map fst metrics)

let smoke () =
  let ok = ref true in
  List.iter
    (fun workload ->
      List.iter
        (fun trace ->
          let correct, result, names =
            run_workload ~quiet:true smoke_sizes ~workload ~seed:1 ~seconds:0.3 ~trace
          in
          if not correct then print_endline result;
          let want = List.map fst (if trace then per_layer else end_to_end) in
          let missing = List.filter (fun n -> not (List.mem n names)) want in
          Printf.printf "smoke %-22s %-6s %s%s\n%!" workload
            (if trace then "traced" else "plain")
            (if correct then "ok" else "FAILED")
            (if missing = [] then "" else " missing: " ^ String.concat ", " missing);
          if (not correct) || missing <> [] then ok := false)
        [ false; true ])
    workloads;
  exit (if !ok then 0 else 1)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let smoke_run = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME  " ^ String.concat " | " workloads);
      ("--seed", Arg.Set_int seed, "N  input seed");
      ("--seconds", Arg.Set_float seconds, "S  measuring time");
      ("--trace", Arg.Set_int trace, "0|1  per-layer traced run");
      ("--smoke", Arg.Set smoke_run, " run every workload at a tiny size");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  if !smoke_run then smoke ();
  if not (List.mem !workload workloads) then begin
    Printf.eprintf "unknown workload %S (known: %s)\n" !workload (String.concat ", " workloads);
    exit 2
  end;
  let correct, result, _ =
    run_workload full_sizes ~workload:!workload ~seed:!seed ~seconds:!seconds
      ~trace:(!trace = 1)
  in
  print_endline result;
  exit (if correct then 0 else 1)
