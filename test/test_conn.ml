(* Socket-level tests for the batched connection layer (lib/net/conn)
   over real socketpairs: write coalescing (many staged frames, one
   write(2)), partial-write queueing and draining under a congested
   socket, dead-peer error reporting, and reads that split frames
   (more than one read chunk at once, a frame cut by EAGAIN) surfacing
   each frame once, in one linear pass.  These pin the Conn contract
   the runtime's event loop relies on, and the select and epoll event
   loops are checked against each other over the same sockets; the
   end-to-end cluster behavior is in test_net_convergence.ml. *)

module Conn = Crdt_net.Conn
module Frame = Crdt_wire.Frame

(* A write to a closed peer must surface as an [Error], not kill the
   process. *)
let () = Sys.set_signal Sys.sigpipe Sys.Signal_ignore

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let socketpair () = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0

let payload i = Printf.sprintf "frame-%d-%s" i (String.make (i mod 23) 'y')

(* Drain everything currently readable from a nonblocking fd. *)
let read_available fd buf =
  let chunk = Bytes.create 65536 in
  let rec go () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | n ->
        Buffer.add_subbytes buf chunk 0 n;
        go ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

let coalescing_tests =
  [
    Alcotest.test_case "50 staged frames leave in one write(2)" `Quick
      (fun () ->
        let a, b = socketpair () in
        let conn = Conn.create a in
        let n = 50 in
        for i = 0 to n - 1 do
          Conn.stage conn ~kind:(i mod 5) (payload i)
        done;
        check_int "staging never touches the socket" 0 (Conn.writes conn);
        check "staged bytes are pending" true (Conn.pending_out conn > 0);
        (match Conn.flush conn with
        | Ok () -> ()
        | Error m -> Alcotest.failf "flush: %s" m);
        check_int "one write for the whole batch" 1 (Conn.writes conn);
        check_int "nothing left queued" 0 (Conn.pending_out conn);
        let expected =
          String.concat ""
            (List.init n (fun i -> Frame.encode ~kind:(i mod 5) (payload i)))
        in
        let got = Buffer.create 4096 in
        Unix.set_nonblock b;
        read_available b got;
        Alcotest.(check string)
          "receiver sees the concatenated frames byte-exactly" expected
          (Buffer.contents got);
        Conn.close conn;
        Unix.close b);
    Alcotest.test_case "send is one write per message" `Quick (fun () ->
        let a, b = socketpair () in
        let conn = Conn.create a in
        for i = 0 to 4 do
          match Conn.send conn ~kind:1 (payload i) with
          | Ok () -> ()
          | Error m -> Alcotest.failf "send: %s" m
        done;
        check_int "five messages, five writes" 5 (Conn.writes conn);
        Conn.close conn;
        Unix.close b);
  ]

let backpressure_tests =
  [
    Alcotest.test_case "partial write queues; repeated flush drains" `Quick
      (fun () ->
        let a, b = socketpair () in
        let conn = Conn.create a in
        (* Far more than any socket buffer: the first flush must hit
           EAGAIN with a queued remainder, and that must be Ok, not an
           error (the old path raised on any short write). *)
        let big = String.make (4 * 1024 * 1024) 'z' in
        Conn.stage conn ~kind:2 big;
        (match Conn.flush conn with
        | Ok () -> ()
        | Error m -> Alcotest.failf "first flush: %s" m);
        check "remainder queued after EAGAIN" true (Conn.pending_out conn > 0);
        check "connection still healthy" true (Conn.alive conn);
        let got = Buffer.create (String.length big + 64) in
        Unix.set_nonblock b;
        let rounds = ref 0 in
        while Conn.pending_out conn > 0 && !rounds < 10_000 do
          incr rounds;
          read_available b got;
          match Conn.flush conn with
          | Ok () -> ()
          | Error m -> Alcotest.failf "drain flush: %s" m
        done;
        read_available b got;
        check_int "everything eventually drained" 0 (Conn.pending_out conn);
        check "took more than one write" true (Conn.writes conn > 1);
        Alcotest.(check string)
          "received stream is the staged frame" (Frame.encode ~kind:2 big)
          (Buffer.contents got);
        Conn.close conn;
        Unix.close b);
    Alcotest.test_case "flush to a closed peer reports Error" `Quick
      (fun () ->
        let a, b = socketpair () in
        let conn = Conn.create a in
        Unix.close b;
        (* The kernel may accept a buffered write or two before EPIPE
           surfaces; keep pushing until the error comes through. *)
        let rec poke k =
          if k = 0 then Alcotest.fail "no error after many writes to dead peer"
          else begin
            Conn.stage conn ~kind:1 (String.make 4096 'q');
            match Conn.flush conn with
            | Ok () -> poke (k - 1)
            | Error _ -> ()
          end
        in
        poke 100;
        check "connection marked dead" false (Conn.alive conn);
        (match Conn.send conn ~kind:1 "after" with
        | Ok () -> Alcotest.fail "send succeeded on a dead connection"
        | Error _ -> ());
        Conn.close conn);
  ]

let recv_tests =
  [
    Alcotest.test_case "one read surfaces every buffered frame" `Quick
      (fun () ->
        let a, b = socketpair () in
        let conn = Conn.create a in
        let n = 20 in
        let stream =
          String.concat ""
            (List.init n (fun i -> Frame.encode ~kind:(i mod 3) (payload i)))
        in
        let w = Unix.write_substring b stream 0 (String.length stream) in
        check_int "test stream fits the socket buffer" (String.length stream) w;
        (match Conn.recv conn with
        | Ok frames ->
            Alcotest.(check (list (pair int string)))
              "all frames, in order"
              (List.init n (fun i -> (i mod 3, payload i)))
              frames
        | Error `Closed -> Alcotest.fail "recv: closed"
        | Error (`Bad e) ->
            Alcotest.failf "recv: %s" (Crdt_wire.Codec.error_to_string e));
        Unix.close b;
        (match Conn.recv conn with
        | Error `Closed -> ()
        | Ok _ | Error (`Bad _) -> Alcotest.fail "EOF not reported as Closed");
        check "closed on EOF" false (Conn.alive conn);
        Conn.close conn);
    Alcotest.test_case "more than a read chunk: every frame once, in order"
      `Quick (fun () ->
        let a, b = socketpair () in
        let conn = Conn.create a in
        let n = 4_000 in
        let frames = List.init n (fun i -> Frame.encode ~kind:(i mod 3) (payload i)) in
        let stream = String.concat "" frames in
        (* The 64 KiB read chunk must cut a frame: some frame starts
           before byte 65 536 and ends after it. *)
        let straddles =
          fst
            (List.fold_left
               (fun (found, at) f ->
                 let next = at + String.length f in
                 (found || (at < 65536 && next > 65536), next))
               (false, 0) frames)
        in
        check "a frame straddles the read-chunk boundary" true straddles;
        check "the stream exceeds one read chunk" true
          (String.length stream > 65536);
        let w = Unix.write_substring b stream 0 (String.length stream) in
        check_int "test stream fits the socket buffer" (String.length stream) w;
        let before = Gc.allocated_bytes () in
        let rec go acc reads =
          if List.length acc >= n || reads > 100 then (List.rev acc, reads)
          else
            match Conn.recv conn with
            | Ok got -> go (List.rev_append got acc) (reads + 1)
            | Error `Closed -> Alcotest.fail "recv: closed"
            | Error (`Bad e) ->
                Alcotest.failf "recv: %s" (Crdt_wire.Codec.error_to_string e)
        in
        let got, reads = go [] 0 in
        let per_byte =
          (Gc.allocated_bytes () -. before) /. float (String.length stream)
        in
        check "took more than one read" true (reads > 1);
        Alcotest.(check (list (pair int string)))
          "every frame exactly once, in order"
          (List.init n (fun i -> (i mod 3, payload i)))
          got;
        check
          (Printf.sprintf "recv allocates %.1f B per input byte (< 32)"
             per_byte)
          true (per_byte < 32.);
        (match Conn.recv conn with
        | Ok [] -> ()
        | Ok _ -> Alcotest.fail "a frame surfaced twice"
        | Error _ -> Alcotest.fail "recv failed on an idle socket");
        Conn.close conn;
        Unix.close b);
    Alcotest.test_case "a frame cut by EAGAIN comes out whole" `Quick
      (fun () ->
        let a, b = socketpair () in
        let conn = Conn.create a in
        let big = String.make 10_000 'h' in
        let frame = Frame.encode ~kind:4 big in
        let half = String.length frame / 2 in
        let write s = ignore (Unix.write_substring b s 0 (String.length s)) in
        write (String.sub frame 0 half);
        let expect_none what =
          match Conn.recv conn with
          | Ok [] -> ()
          | Ok _ -> Alcotest.failf "%s: a partial frame surfaced" what
          | Error _ -> Alcotest.failf "%s: recv failed" what
        in
        expect_none "first half";
        (* Nothing more to read: the socket reports EAGAIN. *)
        expect_none "EAGAIN";
        check "still alive after EAGAIN" true (Conn.alive conn);
        write (String.sub frame half (String.length frame - half));
        (match Conn.recv conn with
        | Ok [ (4, p) ] -> Alcotest.(check string) "whole payload" big p
        | Ok got -> Alcotest.failf "expected one frame, got %d" (List.length got)
        | Error _ -> Alcotest.fail "recv failed on the second half");
        Conn.close conn;
        Unix.close b);
  ]

(* Select and epoll must report the same readiness for the same
   registrations: the runtime runs on epoll on Linux and on select
   elsewhere, and behaves identically only because of this.  Each step
   checks that both backends return the expected (readable, writable)
   sets. *)
let backend_equality () =
  if not (Crdt_net.Evloop_epoll.available ()) then Alcotest.skip ();
  let module Evloop = Crdt_net.Evloop in
  let loops =
    [
      Evloop.make (module Evloop.Select);
      Evloop.make (module Crdt_net.Evloop_epoll.Epoll);
    ]
  in
  let a, a_peer = socketpair () in
  let b, b_peer = socketpair () in
  let c, c_peer = socketpair () in
  let names = [ (a, "a"); (b, "b"); (c, "c") ] in
  let label fds =
    List.sort compare (List.map (fun fd -> List.assoc fd names) fds)
  in
  let step what f ~expect =
    List.iter f loops;
    List.iter
      (fun loop ->
        let r, w = Evloop.wait loop ~timeout:0.01 in
        Alcotest.(check (pair (list string) (list string)))
          (Printf.sprintf "%s: %s" (Evloop.backend_name loop) what)
          expect (label r, label w))
      loops
  in
  step "registered, idle"
    (fun l ->
      Evloop.add l a;
      Evloop.add l ~read:false b)
    ~expect:([], []);
  ignore (Unix.write_substring a_peer "x" 0 1);
  step "peer wrote" ignore ~expect:([ "a" ], []);
  step "write interest on"
    (fun l -> Evloop.set_write l b true)
    ~expect:([ "a" ], [ "b" ]);
  step "write interest off"
    (fun l -> Evloop.set_write l b false)
    ~expect:([ "a" ], []);
  step "removed while readable" (fun l -> Evloop.remove l a) ~expect:([], []);
  (* The busy-loop case: no read or write interest, peer gone.  epoll
     reports HUP regardless of the mask; neither backend may surface
     it. *)
  Unix.close b_peer;
  step "no interest, peer closed" ignore ~expect:([], []);
  step "write interest on a closed peer"
    (fun l -> Evloop.set_write l b true)
    ~expect:([], [ "b" ]);
  Unix.close c_peer;
  step "read interest on a closed peer"
    (fun l -> Evloop.add l c)
    ~expect:([ "c" ], [ "b" ]);
  List.iter Evloop.close loops;
  List.iter Unix.close [ a; a_peer; b; c ]

(* The runtime takes its loop from [Evloop_epoll.loop]: epoll where the
   platform has it, select where it does not. *)
let loop_backend () =
  let loop = Crdt_net.Evloop_epoll.loop () in
  Fun.protect ~finally:(fun () -> Crdt_net.Evloop.close loop) @@ fun () ->
  Alcotest.(check string)
    "backend"
    (if Crdt_net.Evloop_epoll.available () then "epoll" else "select")
    (Crdt_net.Evloop.backend_name loop)

let () =
  Alcotest.run "conn"
    [
      ("coalescing", coalescing_tests);
      ("backpressure", backpressure_tests);
      ("recv", recv_tests);
      ( "evloop",
        [
          Alcotest.test_case "select and epoll report the same readiness"
            `Quick backend_equality;
          Alcotest.test_case "the runtime loop is epoll where available"
            `Quick loop_backend;
        ] );
    ]
