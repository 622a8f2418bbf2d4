(* retwis-mesh-sim: Retwis on the round-based simulator.

   32 replicas on the paper's partial mesh run sharded δ-BP+RR with
   exact wire bytes on one domain, closed loop: every node performs one
   Retwis operation per round (Table II mix, Zipf 1.25) for a fixed
   budget of rounds, then the network drains for diameter + 1 rounds
   with no operations and the runner confirms convergence.

   Visibility is sampled: for one operation in [sample_every] that
   updates state, the optimal delta of its primary update (the follow,
   or the post on the author's wall) is computed at the origin, and
   each node's state is tested for it with [leq] at the start of every
   later round.  The sample is visible once every node includes it. *)

open Crdt_retwis

type params = {
  nodes : int;
  users : int;
  zipf : float;
  budget : int;  (** rounds with operations. *)
  sample_every : int;
}

let full = { nodes = 32; users = 10_000; zipf = 1.25; budget = 24; sample_every = 4 }
let smoke = { nodes = 8; users = 200; zipf = 1.25; budget = 8; sample_every = 1 }

module type CRDT = Crdt_proto.Protocol_intf.CRDT

(* Sharded δ-BP+RR over a given per-user lattice module. *)
module Stack (C : CRDT with type t = User_state.t and type op = User_state.op) =
  Crdt_proto.Sharded.Make (Sharded_store.Key) (C)
    (Crdt_proto.Delta_sync.Make (C) (Crdt_proto.Delta_sync.Bp_rr_config))

module Plain = Stack (User_state)
module Traced_stack = Stack (Traced.Crdt (User_state))
module Traced_proto = Traced.Proto (Traced_stack)

let diameter topo =
  let n = Crdt_sim.Topology.size topo in
  let far = ref 0 in
  for s = 0 to n - 1 do
    let dist = Array.make n (-1) in
    dist.(s) <- 0;
    let q = Queue.create () in
    Queue.add s q;
    while not (Queue.is_empty q) do
      let u = Queue.pop q in
      List.iter
        (fun v ->
          if dist.(v) < 0 then begin
            dist.(v) <- dist.(u) + 1;
            far := max !far dist.(v);
            Queue.add v q
          end)
        (Crdt_sim.Topology.neighbors topo u)
    done
  done;
  !far

type sample = {
  round : int;
  applied : float;
  user : int;
  delta : User_state.t;
  seen : Bytes.t;
  mutable count : int;
}

let f_engine = Span.fn Engine "run"
let f_retwis = Span.fn Retwis "ops"
let f_observe = Span.fn Bench "observe"
let f_ops = Span.fn Bench "ops"
let f_equal = Span.fn Proto "equal_states"

let state_codec = Crdt_wire.Codec.(list (pair int User_state.codec))

let run_rep ~traced ~seed p : Rep.t =
  let r = Rep.make () in
  let module P =
    (val if traced then
           (module Traced_proto : Crdt_proto.Protocol_intf.PROTOCOL
             with type crdt = (int * User_state.t) list
              and type op = int * User_state.op)
         else
           (module Plain : Crdt_proto.Protocol_intf.PROTOCOL
             with type crdt = (int * User_state.t) list
              and type op = int * User_state.op))
  in
  let module R = Crdt_sim.Runner.Make (P) in
  let equal a b =
    if traced then Span.wrap2 f_equal Traced_stack.equal_states a b
    else Plain.equal_states a b
  in
  let t_start = Measure.wall () in
  let wl = Workload.make ~seed ~users:p.users ~coefficient:p.zipf in
  let topology = Crdt_sim.Topology.partial_mesh p.nodes in
  let drain = diameter topology + 1 in
  let rounds = p.budget + drain in
  let round_t = Array.make (rounds + 1) 0. in
  let first_op = ref 0. and cpu0 = ref 0. and last_op = ref 0. in
  let pending = ref [] in
  let find user state =
    match List.assoc_opt user state with Some x -> x | None -> User_state.bottom
  in
  let observe ~round ~node state =
    pending :=
      List.filter
        (fun s ->
          if s.round < round && Bytes.get s.seen node = '\000' then
            if User_state.leq s.delta (find s.user state) then begin
              Bytes.set s.seen node '\001';
              s.count <- s.count + 1
            end;
          if s.count = p.nodes then begin
            Measure.add r.visible_ms ((round_t.(round) -. s.applied) *. 1000.);
            Measure.add r.visible_rounds (float_of_int (round - s.round));
            false
          end
          else true)
        !pending
  in
  let sample ~round ~node state ops =
    match ops with
    | (user, uop) :: _ when (round * p.nodes + node) mod p.sample_every = 0 ->
        let delta =
          User_state.delta_mutate uop
            (Crdt_core.Replica_id.of_int node)
            (find user state)
        in
        if not (User_state.is_bottom delta) then
          pending :=
            {
              round;
              applied = Measure.wall ();
              user;
              delta;
              seen = Bytes.make p.nodes '\000';
              count = 0;
            }
            :: !pending
    | _ -> ()
  in
  let ops ~round ~node state =
    if node = 0 then begin
      round_t.(round) <- Measure.wall ();
      if round = 0 then begin
        first_op := round_t.(0);
        cpu0 := Measure.cpu ()
      end
    end;
    Span.time f_observe (fun () -> observe ~round ~node state) ();
    if round >= p.budget then []
    else begin
      let ops =
        Span.time f_retwis
          (fun () -> Workload.ops_sharded wl ~round ~node state)
          ()
      in
      Span.time f_observe (fun () -> sample ~round ~node state ops) ();
      if round = p.budget - 1 && node = p.nodes - 1 then
        last_op := Measure.wall ();
      ops
    end
  in
  let ops ~round ~node state =
    Span.time f_ops (fun () -> ops ~round ~node state) ()
  in
  (* Spans carry the replica and round they work for. *)
  let sink =
    if traced then
      let ctx ~node ~round = Span.set_context ~replica:node ~round in
      Some
        {
          Crdt_engine.Trace.null with
          tick = ctx;
          deliver = (fun ~node ~src:_ ~round -> ctx ~node ~round);
        }
    else None
  in
  let ops ~round ~node state =
    if traced then Span.set_context ~replica:node ~round;
    ops ~round ~node state
  in
  if traced then Atomic.set Span.measuring true;
  let res =
    Span.time f_engine
      (fun () ->
        R.run ?sink ~domains:1 ~bytes:Crdt_sim.Metrics.Exact ~equal ~topology
          ~rounds ~ops ())
      ()
  in
  let t_end = Measure.wall () in
  let cpu_end = Measure.cpu () in
  Atomic.set Span.measuring false;
  r.setup_s <- !first_op -. t_start;
  r.ops <- p.nodes * p.budget;
  r.span_s <- t_end -. !first_op;
  r.cpu_s <- cpu_end -. !cpu0;
  r.catchup_s <- t_end -. !last_op;
  let add (m : Crdt_sim.Metrics.round) =
    r.wire_bytes <- r.wire_bytes + m.wire_bytes;
    r.messages <- r.messages + m.messages;
    r.payload <- r.payload + m.payload;
    r.digest_bytes <- r.digest_bytes + m.digest_bytes;
    r.sync_rounds <- r.sync_rounds + m.sync_rounds
  in
  Array.iter add res.R.rounds;
  Array.iter add res.R.quiesce_rounds;
  (* Correctness gate: convergence, byte-identical final states, and
     every sampled operation visible everywhere. *)
  if not res.R.converged then Rep.fail r "replicas did not converge";
  let digests =
    Array.map
      (fun s -> Digest.string (Crdt_wire.Codec.encode_to_string state_codec s))
      res.R.finals
  in
  if not (Array.for_all (String.equal digests.(0)) digests) then
    Rep.fail r "final state digests differ across replicas";
  if !pending <> [] then
    Rep.fail r "%d sampled operations never became visible everywhere"
      (List.length !pending);
  if Measure.count r.visible_ms = 0 then Rep.fail r "no visibility samples";
  if r.gate <> [] then r.failed <- r.ops;
  r
