(* gcounter-pair-serve: two δ-BP+RR replicas of a grow-only counter at a
   fixed offered rate of [k] increments per 1 ms tick per replica.

   The message is the smallest there is (one counter entry) and the
   lattice work is O(1), so the CPU goes to the data path: tick,
   encode, write(2), epoll wake, read, decode, handle.  Replica 1
   restarts from an in-memory image of an earlier life (its own entry)
   while replica 0 starts empty; catch-up is replica 0 taking in that
   image, which the δ protocol's recovery exchange ships from replica
   1's first tick. *)

module G = Crdt_core.Gcounter
module Pr = Pair.Make (G)

type params = { k : int; tick_ms : int }

let full = { k = 8; tick_ms = 1 }
let smoke = { k = 2; tick_ms = 1 }

module Plain = Crdt_proto.Delta_sync.Make (G) (Crdt_proto.Delta_sync.Bp_rr_config)

module Traced_stack =
  Traced.Proto
    (Crdt_proto.Delta_sync.Make
       (Traced.Crdt (G))
       (Crdt_proto.Delta_sync.Bp_rr_config))

module Traced_lattice = Traced.Crdt (G)

let run_rep ~traced ~seed ~seconds ~work p : Rep.t =
  let r = Rep.make () in
  let rng = Random.State.make [| seed; 0xc0 |] in
  let history = 100_000 + Random.State.int rng 900_000 in
  let boot =
    [| None; Some (G.of_list [ (Crdt_core.Replica_id.of_int 1, history) ]) |]
  in
  let slots = max 1 (int_of_float (seconds *. 1000.) / p.tick_ms) in
  let cfg =
    {
      Pr.tick_ms = p.tick_ms;
      k = p.k;
      slots;
      gen = (fun ~replica:_ ~slot:_ ~idx:_ -> G.Inc 1);
      boot;
      lagging = Some 0;
      persist = [| None; None |];
      sockets = work;
    }
  in
  let t_start = Measure.wall () in
  let finals =
    if traced then
      Pr.run ~traced ~stack:(module Traced_stack)
        ~lattice:(module Traced_lattice) ~t_start cfg r
    else Pr.run ~traced ~stack:(module Plain) ~lattice:(module G) ~t_start cfg r
  in
  (* The counter must hold the earlier life plus every increment. *)
  let expected = history + r.Rep.ops in
  Array.iteri
    (fun i x ->
      if G.value x <> expected then
        Rep.fail r "replica %d counts %d, expected %d" i (G.value x) expected)
    finals;
  if r.gate <> [] then r.failed <- r.ops;
  r
