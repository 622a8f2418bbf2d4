(* gmap-durable-restart: two conflict-sync replicas of a grow-only map of
   version counters, each booting from its own on-disk log.

   Before the clock starts, each data directory gets a checkpoint of a
   shared base image plus a delta tail; replica 0's tail also holds
   [lag] bumps replica 1 never saw, so replica 1's image lags by that
   fixed set of keys.  Set-up opens both stores and replays checkpoint
   and tail into the boot states; then both replicas serve together.
   Each bumps keys of its own half, [k] per 1 ms tick, fsync [always],
   with the persist sink of `crdtsync serve --data-dir`: append the
   delta against the last image written, checkpoint every
   [checkpoint_every] deltas.  Catch-up is replica 1 taking in replica
   0's boot image. *)

module M = Crdt_core.Gmap.Versioned
module Store = Crdt_store.Store
module Pr = Pair.Make (M)

type params = {
  keys : int;
  lag : int;
  k : int;
  tick_ms : int;
  tail : int;  (** deltas in each log after its checkpoint. *)
  checkpoint_every : int;
}

let full =
  { keys = 1000; lag = 100; k = 4; tick_ms = 1; tail = 200; checkpoint_every = 250 }

let smoke =
  { keys = 100; lag = 10; k = 2; tick_ms = 1; tail = 20; checkpoint_every = 50 }

let fsync = Store.Always

module Plain = Crdt_proto.Conflict_sync.Make (M) (Crdt_proto.Conflict_sync.Default_config)
module Traced_lattice = Traced.Crdt (M)

module Traced_stack =
  Traced.Proto
    (Crdt_proto.Conflict_sync.Make
       (Traced_lattice)
       (Crdt_proto.Conflict_sync.Default_config))

let f_open = Span.fn Store "open"
let f_append = Span.fn Store "append_delta"
let f_checkpoint = Span.fn Store "checkpoint"
let f_close = Span.fn Store "close"
let f_encode = Span.fn Wire "state_encode"
let f_decode = Span.fn Wire "state_decode"
let f_persist = Span.fn Bench "persist"

let encode x = Crdt_wire.Codec.encode_to_string M.codec x

let decode s =
  match Crdt_wire.Codec.decode_string M.codec s with
  | Ok x -> x
  | Error e -> failwith ("undecodable store record: " ^ Crdt_wire.Codec.error_to_string e)

let bump k = M.Apply (k, Crdt_core.Version.Bump)
let rid = Crdt_core.Replica_id.of_int 0

(* Write both logs; returns the two images they hold. *)
let write_fixture ~seed p dirs =
  let rng = Random.State.make [| seed; 0xd15c |] in
  let base = ref M.bottom in
  for key = 0 to p.keys - 1 do
    for _ = 0 to Random.State.int rng 4 do
      base := M.mutate (bump key) rid !base
    done
  done;
  let x = ref !base in
  let step keys =
    List.fold_left
      (fun d key ->
        let dk = M.delta_mutate (bump key) rid !x in
        x := M.join !x dk;
        M.join d dk)
      M.bottom keys
  in
  let tail =
    List.init p.tail (fun _ ->
        step (List.init 4 (fun _ -> Random.State.int rng p.keys)))
  in
  let image1 = !x in
  let order = Array.init p.keys Fun.id in
  for i = p.keys - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- t
  done;
  let lag = List.init p.lag (fun i -> step [ order.(i) ]) in
  let image0 = !x in
  let write dir deltas =
    let st, _ = Store.open_ ~fsync:Store.Never ~dir () in
    Store.checkpoint st (encode !base);
    List.iter (fun d -> Store.append_delta st (encode d)) deltas;
    Store.close st
  in
  write dirs.(0) (tail @ lag);
  write dirs.(1) tail;
  (image0, image1)

let recover (type a) (module L : Crdt_proto.Protocol_intf.CRDT with type t = a)
    (dec : string -> a) (rc : Store.recovery) =
  List.fold_left
    (fun acc d -> L.join acc (dec d))
    (match rc.Store.checkpoint with Some c -> dec c | None -> L.bottom)
    rc.Store.deltas

let run_rep ~traced ~seed ~seconds ~work p : Rep.t =
  let r = Rep.make () in
  let dirs = Array.init 2 (fun i -> Filename.concat work (Printf.sprintf "data%d" i)) in
  Array.iter Measure.remove_tree dirs;
  let image0, image1 = write_fixture ~seed p dirs in
  let lattice : (module Crdt_proto.Protocol_intf.CRDT with type t = M.t and type op = M.op) =
    if traced then (module Traced_lattice) else (module M)
  in
  let module L = (val lattice) in
  let dec s = Span.time f_decode decode s in
  (* The clock starts here: open both stores and replay them. *)
  let t_start = Measure.wall () in
  let opened =
    Array.map
      (fun dir ->
        let t = Measure.wall () in
        let st, rc = Span.time f_open (fun () -> Store.open_ ~fsync ~dir ()) () in
        let boot = recover (module L) dec rc in
        r.recover_ms <- r.recover_ms +. ((Measure.wall () -. t) *. 1000.);
        (st, boot))
      dirs
  in
  let appends = Array.init 2 (fun _ -> Measure.samples ()) in
  let bytes = Array.make 2 0 and ckpt = Array.make 2 0. in
  let persist i =
    let st, boot = opened.(i) in
    let last = ref boot in
    let write state =
      let d = L.delta state !last in
      if not (M.is_bottom d) then begin
        let body = Span.time f_encode encode d in
        let t = Measure.wall () in
        Span.time f_append (Store.append_delta st) body;
        Measure.add appends.(i) ((Measure.wall () -. t) *. 1e6);
        bytes.(i) <- bytes.(i) + String.length body;
        if Store.deltas_since_checkpoint st >= p.checkpoint_every then begin
          let t = Measure.wall () in
          let body = Span.time f_encode encode state in
          Span.time f_checkpoint (Store.checkpoint st) body;
          ckpt.(i) <- ckpt.(i) +. (Measure.wall () -. t)
        end
      end;
      last := state
    in
    Some (fun state -> Span.time f_persist write state)
  in
  let slots = max 1 (int_of_float (seconds *. 1000.) / p.tick_ms) in
  let half = p.keys / 2 in
  let rngs = Array.init 2 (fun i -> Random.State.make [| seed; 0xb0; i |]) in
  let cfg =
    {
      Pr.tick_ms = p.tick_ms;
      k = p.k;
      slots;
      gen =
        (fun ~replica ~slot:_ ~idx:_ ->
          bump ((replica * half) + Random.State.int rngs.(replica) half));
      boot = Array.map (fun (_, b) -> Some b) opened;
      lagging = Some 1;
      persist = Array.init 2 persist;
      sockets = work;
    }
  in
  let finals =
    if traced then
      Pr.run ~traced ~stack:(module Traced_stack) ~lattice ~t_start cfg r
    else Pr.run ~traced ~stack:(module Plain) ~lattice ~t_start cfg r
  in
  Array.iter (fun (st, _) -> Span.time f_close Store.close st) opened;
  Array.iter (Measure.append r.append_us) appends;
  r.append_bytes <- bytes.(0) + bytes.(1);
  r.checkpoint_s <- ckpt.(0) +. ckpt.(1);
  (* Each data dir, re-read from disk, must hold exactly its replica's
     final state; and both boot images must be in it. *)
  Array.iteri
    (fun i dir ->
      let disk = recover (module M) decode (Store.read ~dir) in
      if not (M.equal disk finals.(i)) then
        Rep.fail r "data dir %d does not recover replica %d's final state" i i;
      if not (M.leq image0 disk && M.leq image1 disk) then
        Rep.fail r "data dir %d lost part of a boot image" i)
    dirs;
  Array.iter Measure.remove_tree dirs;
  if r.gate <> [] then r.failed <- r.ops;
  r
