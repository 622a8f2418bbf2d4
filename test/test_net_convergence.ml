(* End-to-end convergence over real sockets.

   Spawns one `crdtsync serve` process per replica (the lib/net
   event-loop runtime), fully meshed over unix-domain sockets in a
   private temp directory, running delta BP+RR.  Each replica applies
   its deterministic per-tick operations, synchronizes, and on mutual
   Done writes its hex-encoded final state (canonical lib/wire
   encoding) to a file.  The test asserts every replica wrote the
   byte-identical encoding, that it decodes, and that the decoded state
   has the weight the workload predicts.

   This is the wire stack exercised for real: codecs framing actual
   socket traffic, partial reads reassembled by the frame feed, and the
   Done handshake terminating the processes.

   On top of plain convergence, two engine-level properties are pinned
   here: Scuttlebutt — a protocol that never goes silent on its own —
   terminates over sockets via the dirty-based quiescence handshake,
   and a `--lockstep` cluster reports exactly the wire bytes the
   in-process simulator predicts for the same seeded workload (the
   sim-vs-socket cross-check: both drivers run the identical registry
   workload, so their byte accounting must agree to the byte). *)

open Crdt_core
module Codec = Crdt_wire.Codec
module Registry = Crdt_engine.Registry

let crdtsync () =
  let candidates =
    [
      "../bin/crdtsync.exe";
      Filename.concat (Filename.dirname Sys.executable_name)
        "../bin/crdtsync.exe";
    ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> Alcotest.fail "crdtsync.exe not found; build bin/ first"

let temp_dir () =
  let base = Filename.get_temp_dir_name () in
  let rec go k =
    let d =
      Filename.concat base
        (Printf.sprintf "crdtsync-net-%d-%d" (Unix.getpid ()) k)
    in
    match Unix.mkdir d 0o700 with
    | () -> d
    | exception Unix.Unix_error (Unix.EEXIST, _, _) -> go (k + 1)
  in
  go 0

let rm_rf dir =
  Array.iter
    (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
    (try Sys.readdir dir with Sys_error _ -> [||]);
  try Unix.rmdir dir with Unix.Unix_error _ -> ()

let of_hex s =
  if String.length s mod 2 <> 0 then Alcotest.fail "odd-length hex state";
  String.init
    (String.length s / 2)
    (fun i -> Char.chr (int_of_string ("0x" ^ String.sub s (2 * i) 2)))

let read_hex_line path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> input_line ic)

let status_to_string = function
  | Unix.WEXITED n -> Printf.sprintf "exit %d" n
  | Unix.WSIGNALED n -> Printf.sprintf "signal %d" n
  | Unix.WSTOPPED n -> Printf.sprintf "stopped %d" n

(* Reap every replica, killing the cluster if it outlives [timeout_s]
   (a hung handshake must fail the test, not hang dune runtest). *)
let wait_all ~timeout_s pids =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let pending = ref pids in
  let failed = ref [] in
  while !pending <> [] && Unix.gettimeofday () < deadline do
    pending :=
      List.filter
        (fun pid ->
          match Unix.waitpid [ Unix.WNOHANG ] pid with
          | 0, _ -> true
          | _, Unix.WEXITED 0 -> false
          | _, st ->
              failed := status_to_string st :: !failed;
              false)
        !pending;
    if !pending <> [] then Unix.sleepf 0.02
  done;
  if !pending <> [] then begin
    List.iter
      (fun pid -> try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ())
      !pending;
    List.iter (fun pid -> ignore (Unix.waitpid [] pid)) !pending;
    Alcotest.failf "cluster still running after %.0fs; killed" timeout_s
  end;
  match !failed with
  | [] -> ()
  | fs -> Alcotest.failf "replica failure: %s" (String.concat ", " fs)

(* Scrape an integer field out of a one-line JSON object without a JSON
   dependency; the metrics schema is flat enough for a substring scan. *)
let scrape_int ~key json =
  let pat = Printf.sprintf "%S:" key in
  let lp = String.length pat and lj = String.length json in
  let rec find i =
    if i + lp > lj then Alcotest.failf "no %s field in %s" key json
    else if String.sub json i lp = pat then i + lp
    else find (i + 1)
  in
  let start = find 0 in
  let stop = ref start in
  while
    !stop < lj && match json.[!stop] with '0' .. '9' -> true | _ -> false
  do
    incr stop
  done;
  if !stop = start then Alcotest.failf "non-numeric %s in %s" key json;
  int_of_string (String.sub json start (!stop - start))

(* Run an [n]-replica full mesh of `crdtsync serve` processes on [crdt]
   under [protocol]; returns each replica's raw encoded final state and,
   when [metrics] is set, each replica's `--metrics-out` JSON line. *)
let run_cluster ?(protocol = "delta-bp+rr") ?(lockstep = false)
    ?(metrics = false) ~crdt ~n ~ops () =
  let exe = crdtsync () in
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let sock i = Filename.concat dir (Printf.sprintf "n%d.sock" i) in
  let state i = Filename.concat dir (Printf.sprintf "state%d.hex" i) in
  let metrics_file i = Filename.concat dir (Printf.sprintf "m%d.json" i) in
  let ids = List.init n Fun.id in
  let pids =
    List.map
      (fun i ->
        let peers =
          List.concat_map
            (fun j ->
              if j = i then []
              else [ "--peer"; Printf.sprintf "%d=unix:%s" j (sock j) ])
            ids
        in
        let argv =
          [
            exe; "serve";
            "--id"; string_of_int i;
            "--listen"; "unix:" ^ sock i;
            "--crdt"; crdt;
            "--protocol"; protocol;
            "--ops"; string_of_int ops;
            "--tick-ms"; "10";
            "--max-ticks"; "3000";
            "--state-out"; state i;
          ]
          @ (if lockstep then [ "--lockstep" ] else [])
          @ (if metrics then [ "--metrics-out"; metrics_file i ] else [])
          @ peers
        in
        let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
        let pid =
          Unix.create_process exe (Array.of_list argv) Unix.stdin devnull
            Unix.stderr
        in
        Unix.close devnull;
        pid)
      ids
  in
  wait_all ~timeout_s:60. pids;
  let encodings =
    List.map
      (fun i ->
        let hex = read_hex_line (state i) in
        Alcotest.(check bool)
          (Printf.sprintf "replica %d wrote a state" i)
          true
          (String.length hex > 0);
        of_hex hex)
      ids
  in
  let metrics_json =
    if metrics then List.map (fun i -> read_hex_line (metrics_file i)) ids
    else []
  in
  (encodings, metrics_json)

let all_identical = function
  | [] | [ _ ] -> true
  | x :: rest -> List.for_all (String.equal x) rest

(* -- kill -9 + restart from --data-dir ----------------------------------- *)

let rec rm_rf_deep dir =
  Array.iter
    (fun f ->
      let p = Filename.concat dir f in
      if Sys.is_directory p then rm_rf_deep p
      else try Sys.remove p with Sys_error _ -> ())
    (try Sys.readdir dir with Sys_error _ -> [||]);
  try Unix.rmdir dir with Unix.Unix_error _ -> ()

(* A real crash: an [n]-replica durable mesh, one replica SIGKILLed as
   soon as its segment log holds bytes, then restarted from the same
   --data-dir.  The restarted process recovers checkpoint ⊔ deltas from
   disk, re-applies its deterministic idempotent ops from tick 0, and
   the recovery exchange plus the survivors' redial loop must win back
   whatever the kill destroyed — the cluster still converges
   byte-identically.  The victim's metrics pin that it genuinely booted
   from disk (recovered segments > 0), so a silently-fresh restart
   cannot pass. *)
let kill_restart_test ~protocol () =
  let n = 3 and ops = 40 and victim = 1 in
  let exe = crdtsync () in
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf_deep dir) @@ fun () ->
  let sock i = Filename.concat dir (Printf.sprintf "n%d.sock" i) in
  let state i = Filename.concat dir (Printf.sprintf "state%d.hex" i) in
  let metrics_file i = Filename.concat dir (Printf.sprintf "m%d.json" i) in
  let data i = Filename.concat dir (Printf.sprintf "data%d" i) in
  let ids = List.init n Fun.id in
  let spawn i =
    let peers =
      List.concat_map
        (fun j ->
          if j = i then []
          else [ "--peer"; Printf.sprintf "%d=unix:%s" j (sock j) ])
        ids
    in
    let argv =
      [
        exe; "serve";
        "--id"; string_of_int i;
        "--listen"; "unix:" ^ sock i;
        "--crdt"; "gset";
        "--protocol"; protocol;
        "--ops"; string_of_int ops;
        "--tick-ms"; "10";
        "--max-ticks"; "3000";
        "--state-out"; state i;
        "--metrics-out"; metrics_file i;
        "--data-dir"; data i;
        "--checkpoint-every"; "8";
        "--fsync"; "never";
      ]
      @ peers
    in
    let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
    let pid =
      Unix.create_process exe (Array.of_list argv) Unix.stdin devnull
        Unix.stderr
    in
    Unix.close devnull;
    pid
  in
  let pids = List.map spawn ids in
  (* Kill only once the victim has persisted something, so the restart
     is a real recovery, not a fresh boot. *)
  let log_bytes i =
    let d = data i in
    if not (Sys.file_exists d) then 0
    else
      Array.fold_left
        (fun acc f -> acc + (Unix.stat (Filename.concat d f)).Unix.st_size)
        0 (Sys.readdir d)
  in
  let deadline = Unix.gettimeofday () +. 20. in
  while log_bytes victim = 0 && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.01
  done;
  if log_bytes victim = 0 then
    Alcotest.fail "victim never persisted anything to its --data-dir";
  let victim_pid = List.nth pids victim in
  Unix.kill victim_pid Sys.sigkill;
  (match Unix.waitpid [] victim_pid with
  | _, Unix.WSIGNALED s when s = Sys.sigkill -> ()
  | _, st -> Alcotest.failf "victim did not die of SIGKILL: %s"
               (status_to_string st));
  let restarted = spawn victim in
  let survivors = List.filteri (fun i _ -> i <> victim) pids in
  wait_all ~timeout_s:60. (restarted :: survivors);
  let encodings = List.map (fun i -> of_hex (read_hex_line (state i))) ids in
  Alcotest.(check bool)
    "all replicas (including the restarted one) encode byte-identically" true
    (all_identical encodings);
  (match Codec.decode_string Gset.Of_int.codec (List.hd encodings) with
  | Error e -> Alcotest.failf "state decode: %s" (Codec.error_to_string e)
  | Ok s ->
      Alcotest.(check int) "no element lost across the kill" (n * ops)
        (Gset.Of_int.weight s));
  let victim_metrics = read_hex_line (metrics_file victim) in
  Alcotest.(check bool) "victim booted from a non-empty segment log" true
    (scrape_int ~key:"segments" victim_metrics > 0)

(* A data dir whose non-final segment is garbage is corruption, not a
   torn tail: serve must refuse it with a one-line error and exit 2
   before it binds its listen socket, not die of an uncaught exception. *)
let damaged_data_dir () =
  let exe = crdtsync () in
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf_deep dir) @@ fun () ->
  let data = Filename.concat dir "data" in
  Unix.mkdir data 0o700;
  let write name contents =
    let oc = open_out_bin (Filename.concat data name) in
    output_string oc contents;
    close_out oc
  in
  write "segment-0000000000000000.log" "garbage, not a store record";
  write "segment-0000000000000001.log" "";
  let sock = Filename.concat dir "n0.sock" in
  let err_path = Filename.concat dir "stderr" in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let err = Unix.openfile err_path [ Unix.O_WRONLY; Unix.O_CREAT ] 0o600 in
  let pid =
    Unix.create_process exe
      [| exe; "serve"; "--id"; "0"; "--listen"; "unix:" ^ sock;
         "--data-dir"; data |]
      Unix.stdin devnull err
  in
  Unix.close devnull;
  Unix.close err;
  let _, st = Unix.waitpid [] pid in
  Alcotest.(check string) "serve exits 2" "exit 2" (status_to_string st);
  let msg = In_channel.with_open_text err_path In_channel.input_all in
  let contains sub =
    let n = String.length sub in
    let rec go i =
      i + n <= String.length msg && (String.sub msg i n = sub || go (i + 1))
    in
    go 0
  in
  Alcotest.(check bool)
    (Printf.sprintf "an error line names the damage: %S" msg)
    true
    (String.starts_with ~prefix:"error: " msg && contains "non-final segment");
  Alcotest.(check bool) "no socket file left behind" false
    (Sys.file_exists sock)

let gset_test () =
  let n = 4 and ops = 10 in
  let encodings, _ = run_cluster ~crdt:"gset" ~n ~ops () in
  Alcotest.(check bool)
    "all replicas encode byte-identically" true (all_identical encodings);
  match Codec.decode_string Gset.Of_int.codec (List.hd encodings) with
  | Error e -> Alcotest.failf "state decode: %s" (Codec.error_to_string e)
  | Ok s ->
      (* Per-tick elements are disjoint across replicas (id*1e6 + tick),
         so the converged set has exactly n*ops elements. *)
      Alcotest.(check int) "cardinal = replicas * ops" (n * ops)
        (Gset.Of_int.weight s)

let gmap_test () =
  let n = 3 and ops = 10 in
  let encodings, _ = run_cluster ~crdt:"gmap" ~n ~ops () in
  Alcotest.(check bool)
    "all replicas encode byte-identically" true (all_identical encodings);
  match Codec.decode_string Gmap.Versioned.codec (List.hd encodings) with
  | Error e -> Alcotest.failf "state decode: %s" (Codec.error_to_string e)
  | Ok m ->
      (* Every replica bumps key (tick mod 50) once, so keys 0..ops-1
         are populated and the joined version on each is 1. *)
      Alcotest.(check int) "one live key per op tick" ops
        (Gmap.Versioned.weight m)

(* Scuttlebutt gossips digests forever when left alone — before the
   dirty-based quiescence handshake, a serve cluster running it would
   spin until --max-ticks.  Its convergence over real sockets is the
   evidence that serve now accepts every registered protocol. *)
let scuttlebutt_test () =
  let n = 3 and ops = 8 in
  let encodings, _ =
    run_cluster ~protocol:"scuttlebutt" ~crdt:"gset" ~n ~ops ()
  in
  Alcotest.(check bool)
    "all replicas encode byte-identically" true (all_identical encodings);
  match Codec.decode_string Gset.Of_int.codec (List.hd encodings) with
  | Error e -> Alcotest.failf "state decode: %s" (Codec.error_to_string e)
  | Ok s ->
      Alcotest.(check int) "cardinal = replicas * ops" (n * ops)
        (Gset.Of_int.weight s)

(* The simulator's prediction for the serve workload: same registry
   workload, same protocol, full mesh, exact byte accounting. *)
let sim_totals ~crdt ~protocol ~n ~ops =
  let module S = (val Registry.find_crdt crdt) in
  let module Protocols = Registry.For (S.C) in
  let module P = (val Protocols.find protocol) in
  let module R = Crdt_sim.Runner.Make (P) in
  let res =
    R.run ~bytes:Crdt_sim.Metrics.Exact ~equal:S.C.equal
      ~topology:(Crdt_sim.Topology.full_mesh n)
      ~rounds:ops
      ~ops:(fun ~round ~node state -> S.serve_ops ~id:node ~tick:round state)
      ()
  in
  Alcotest.(check bool) "simulator converged" true res.R.converged;
  (R.full_summary res).Crdt_sim.Metrics.totals

(* Every additive key of the --metrics-out totals object, with its
   field in the simulator's summary totals.  [sync_rounds] is left out:
   it does not sum across processes — each serve process counts every
   round in which it received control traffic, so a digest round counts
   once per process, against once for the whole simulated cluster. *)
let additive_totals : (string * (Crdt_engine.Trace.counters -> int)) list =
  [
    ("messages", fun c -> c.messages);
    ("payload", fun c -> c.payload);
    ("metadata", fun c -> c.metadata);
    ("payload_bytes", fun c -> c.payload_bytes);
    ("metadata_bytes", fun c -> c.metadata_bytes);
    ("wire_bytes", fun c -> c.wire_bytes);
    ("ops_applied", fun c -> c.ops_applied);
    ("digest_bytes", fun c -> c.digest_bytes);
  ]

(* The headline engine claim: a --lockstep socket cluster and the
   in-process simulator running the same seeded workload account the
   same traffic, to the byte: every additive totals key, summed over the
   serve processes, equals the simulator's.  Any divergence in what the
   shared driver ships or how the trace layer counts it fails this test.

   The same run pins write coalescing: each replica writes one Hello per
   peer, then per round exactly two writes per peer — the round's
   messages with its Mark, then its Digest. *)
let cross_check ?(protocol = "delta-bp+rr") ~crdt ~n ~ops () =
  let encodings, metrics =
    run_cluster ~protocol ~lockstep:true ~metrics:true ~crdt ~n ~ops ()
  in
  Alcotest.(check bool)
    "all replicas encode byte-identically" true (all_identical encodings);
  let socket key =
    List.fold_left (fun acc m -> acc + scrape_int ~key m) 0 metrics
  in
  Alcotest.(check bool) "sockets moved bytes" true (socket "wire_bytes" > 0);
  let sim = sim_totals ~crdt ~protocol ~n ~ops in
  List.iter
    (fun (key, field) ->
      Alcotest.(check int)
        (Printf.sprintf "simulator and sockets agree on total %s" key)
        (field sim) (socket key))
    additive_totals;
  List.iteri
    (fun i m ->
      let ticks = scrape_int ~key:"ticks" m in
      Alcotest.(check int)
        (Printf.sprintf "replica %d: one write per peer per Hello, Mark, Digest"
           i)
        ((n - 1) * (1 + (2 * ticks)))
        (scrape_int ~key:"writes" m))
    metrics

(* -- serve releases everything when it raises ------------------------------ *)

let open_fds () = Array.length (Sys.readdir "/proc/self/fd")

(* The in-process serve checks run delta-bp+rr over gset. *)
module S = (val Registry.find_crdt "gset")
module Protocols = Registry.For (S.C)
module P = (val Protocols.find "delta-bp+rr")

module R = Crdt_net.Runtime.Make (P)

(* Run [serve] in-process on a two-replica gset link whose peer lives at
   [peer]; [poke ~listen ~peer] runs on this domain while serve runs on
   another and must make it raise.  Afterwards the process must hold exactly the
   fds it held before, and serve's socket file must be gone. *)
let leak_check ~dial_timeout_s ~poke () =
  if not (Sys.file_exists "/proc/self/fd") then Alcotest.skip ();
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let listen = Filename.concat dir "n0.sock"
  and peer = Filename.concat dir "n1.sock" in
  let baseline = open_fds () in
  let cfg =
    {
      (Crdt_net.Runtime.default_config ~id:0
         ~listen:(Crdt_net.Addr.Unix_sock listen)
         ~peers:[ (1, Crdt_net.Addr.Unix_sock peer) ]
         ~total:2)
      with
      tick_ms = 5;
      max_wall_s = 20.;
      dial_timeout_s;
    }
  in
  let served =
    Domain.spawn (fun () ->
        match
          R.serve ~equal:S.C.equal ~digest:(fun _ -> "") cfg
            ~ops:(fun ~tick:_ _ -> [])
        with
        | _ -> None
        | exception e -> Some (Printexc.to_string e))
  in
  poke ~listen ~peer;
  (match Domain.join served with
  | Some _ -> ()
  | None -> Alcotest.fail "serve returned instead of raising");
  Alcotest.(check int) "open fds back at their baseline" baseline (open_fds ());
  Alcotest.(check bool) "listen socket file removed" false
    (Sys.file_exists listen)

(* The only peer never binds: dialing gives up with ENOENT. *)
let leak_on_dial_timeout =
  leak_check ~dial_timeout_s:0.05 ~poke:(fun ~listen:_ ~peer:_ -> ())

(* The peer listens (so the dial succeeds) and then something that is not
   a crdtsync peer writes garbage into serve's listener: the framing error
   must also release the dialed and the accepted connection. *)
let leak_on_framing_error =
  leak_check ~dial_timeout_s:5. ~poke:(fun ~listen ~peer ->
      let fake = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind fake (Unix.ADDR_UNIX peer);
      Unix.listen fake 4;
      let deadline = Unix.gettimeofday () +. 10. in
      while (not (Sys.file_exists listen)) && Unix.gettimeofday () < deadline do
        Unix.sleepf 0.001
      done;
      let junk = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect junk (Unix.ADDR_UNIX listen);
      ignore (Unix.write_substring junk "not a frame" 0 11);
      (* Hold both ends open until serve has failed on its own. *)
      Unix.sleepf 0.2;
      Unix.close junk;
      Unix.close fake)

(* The same cleanup runs when serve returns: both replicas of a clean
   two-replica run, in-process on two domains, agree and leave no fd and
   no socket file behind. *)
let release_on_clean_stop () =
  if not (Sys.file_exists "/proc/self/fd") then Alcotest.skip ();
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let sock i = Filename.concat dir (Printf.sprintf "n%d.sock" i) in
  let baseline = open_fds () in
  let replica id =
    let cfg =
      {
        (Crdt_net.Runtime.default_config ~id
           ~listen:(Crdt_net.Addr.Unix_sock (sock id))
           ~peers:[ (1 - id, Crdt_net.Addr.Unix_sock (sock (1 - id))) ]
           ~total:2)
        with
        tick_ms = 5;
        ops_ticks = 4;
        max_wall_s = 20.;
      }
    in
    Domain.spawn (fun () ->
        R.serve ~equal:S.C.equal ~digest:(fun _ -> "") cfg
          ~ops:(fun ~tick state -> S.serve_ops ~id ~tick state))
  in
  let running = List.map replica [ 0; 1 ] in
  let results = List.map Domain.join running in
  List.iteri
    (fun i (r : R.result) ->
      Alcotest.(check string)
        (Printf.sprintf "replica %d stopped on agreement" i)
        "clean"
        (Crdt_net.Runtime.stop_reason_name r.stop))
    results;
  (match results with
  | [ a; b ] ->
      Alcotest.(check bool) "replicas converged" true (S.C.equal a.state b.state)
  | _ -> assert false);
  Alcotest.(check int) "open fds back at their baseline" baseline (open_fds ());
  List.iter
    (fun i ->
      Alcotest.(check bool)
        (Printf.sprintf "socket file %d removed" i)
        false
        (Sys.file_exists (sock i)))
    [ 0; 1 ]

(* -- a peer that redials while the replica is not running ----------------- *)

(* A closed inbound connection and the accept of its successor can land
   in the same event-loop pass, and the kernel hands the freed fd number
   straight to the new connection.  The replica must still read the new
   connection — here, the Done that lets it stop cleanly.  This process
   plays replica 1 with raw frames; SIGSTOP holds replica 0 while the
   first connection closes and the second one dials, so both events
   surface in one wait. *)
let redial_same_pass () =
  let exe = crdtsync () in
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let sock i = Filename.concat dir (Printf.sprintf "n%d.sock" i) in
  let me = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind me (Unix.ADDR_UNIX (sock 1));
  Unix.listen me 4;
  let argv =
    [|
      exe; "serve";
      "--id"; "0";
      "--listen"; "unix:" ^ sock 0;
      "--peer"; "1=unix:" ^ sock 1;
      "--ops"; "0";
      "--tick-ms"; "10";
      "--max-ticks"; "300";
    |]
  in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid = Unix.create_process exe argv Unix.stdin devnull Unix.stderr in
  Unix.close devnull;
  let frame kind =
    Crdt_wire.Frame.encode ~kind (Codec.encode_to_string Codec.varint 1)
  in
  let hello = frame 0 and done_ = frame 2 in
  let dial () =
    let deadline = Unix.gettimeofday () +. 10. in
    let rec go () =
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      match Unix.connect fd (Unix.ADDR_UNIX (sock 0)) with
      | () -> fd
      | exception Unix.Unix_error ((ENOENT | ECONNREFUSED), _, _)
        when Unix.gettimeofday () < deadline ->
          Unix.close fd;
          Unix.sleepf 0.01;
          go ()
    in
    go ()
  in
  let send fd s = ignore (Unix.write_substring fd s 0 (String.length s)) in
  let first = dial () in
  send first hello;
  Unix.sleepf 0.1;
  Unix.kill pid Sys.sigstop;
  (match Unix.waitpid [ Unix.WUNTRACED ] pid with
  | _, Unix.WSTOPPED _ -> ()
  | _, st -> Alcotest.failf "replica did not stop: %s" (status_to_string st));
  let second =
    Fun.protect ~finally:(fun () -> Unix.kill pid Sys.sigcont) @@ fun () ->
    Unix.close first;
    let second = dial () in
    send second (hello ^ done_);
    second
  in
  wait_all ~timeout_s:20. [ pid ];
  Unix.close second;
  Unix.close me

let () =
  Alcotest.run "net_convergence"
    [
      ( "serve",
        [
          Alcotest.test_case "4 GSet replicas converge over sockets" `Quick
            gset_test;
          Alcotest.test_case "3 GMap replicas converge over sockets" `Quick
            gmap_test;
          Alcotest.test_case "3 Scuttlebutt replicas converge over sockets"
            `Quick scuttlebutt_test;
        ] );
      ( "sim-vs-socket wire bytes",
        [
          Alcotest.test_case "GSet lockstep cluster matches the simulator"
            `Quick
            (cross_check ~crdt:"gset" ~n:3 ~ops:8);
          Alcotest.test_case "GMap lockstep cluster matches the simulator"
            `Quick
            (cross_check ~crdt:"gmap" ~n:3 ~ops:8);
          (* Conflict-sync broadcasts a digest every tick, so this cell
             additionally pins that the lockstep barrier and the
             simulator's quiesce loop stop at the same round boundary —
             one extra round on either side would show up as n*(n-1)
             stray digest frames. *)
          Alcotest.test_case
            "GSet conflict-sync lockstep matches the simulator" `Quick
            (cross_check ~protocol:"conflict-sync" ~crdt:"gset" ~n:3 ~ops:8);
        ] );
      ( "serve fd lifecycle",
        [
          Alcotest.test_case
            "a dial timeout releases every fd and the socket file" `Quick
            leak_on_dial_timeout;
          Alcotest.test_case
            "a framing error releases every fd and the socket file" `Quick
            leak_on_framing_error;
          Alcotest.test_case
            "a clean stop releases every fd and the socket files" `Quick
            release_on_clean_stop;
          Alcotest.test_case
            "a peer that redials within one loop pass is still read" `Quick
            redial_same_pass;
        ] );
      ( "kill -9 + restart",
        [
          Alcotest.test_case
            "delta-bp+rr survives SIGKILL + restart from --data-dir" `Quick
            (kill_restart_test ~protocol:"delta-bp+rr");
          Alcotest.test_case
            "conflict-sync survives SIGKILL + restart from --data-dir" `Quick
            (kill_restart_test ~protocol:"conflict-sync");
        ] );
      ( "damaged --data-dir",
        [
          Alcotest.test_case
            "a garbage non-final segment makes serve exit 2, not crash"
            `Quick damaged_data_dir;
        ] );
    ]
