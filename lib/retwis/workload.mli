(** Retwis workload generator (Table II).

    Operation mix: 15 % Follow (1 CRDT update), 35 % Post Tweet
    (1 + #followers updates), 50 % Timeline (read-only).  Operation
    targets follow a Zipf distribution over users; tweet identifiers are
    31 B and contents 270 B, as in the paper.  Deterministic for a fixed
    seed. *)

type stats = {
  mutable follows : int;
  mutable posts : int;
  mutable timeline_reads : int;
  mutable updates : int;  (** total CRDT updates issued. *)
  mutable fanout : int;  (** timeline deliveries caused by posts. *)
}

type t

val make : seed:int -> users:int -> coefficient:float -> t
val stats : t -> stats

val raw_ops :
  t ->
  round:int ->
  node:int ->
  followers_of:(int -> int list) ->
  timeline_of:(int -> unit) ->
  (int * User_state.op) list
(** One application-level operation for [node] at [round], expressed as
    (user, operation) updates.  [followers_of] reads the node's local
    replica (posts fan out to the author's currently known followers);
    [timeline_of] performs the read-only Timeline fetch. *)

val ops_sharded :
  t -> ((int * User_state.t) list, int * User_state.op) Crdt_engine.Workload.gen
(** {!raw_ops} reading from a sharded per-user replica (as produced by
    [Crdt_proto.Sharded]), exposed in the engine's
    {!Crdt_engine.Workload.gen} shape so the simulator and benchmarks
    consume Retwis through the same interface as the micro-workloads. *)

val mix : t -> float * float * float * float
(** Measured (follow %, post %, timeline %, avg updates per post) — the
    numbers of Table II. *)
