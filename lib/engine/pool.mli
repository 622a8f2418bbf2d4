(** Fixed work-pool over OCaml 5 domains (stdlib only).

    [size - 1] resident worker domains plus the caller's domain execute
    jobs of [size] shards; a pool of size 1 spawns nothing and runs jobs
    inline, so sequential and parallel callers share one code path.  The
    simulator ([Crdt_sim.Runner]) runs its tick, delivery and memory
    phases as pool jobs. *)

type t

val create : int -> t
(** Spawn a pool of [size] shards (1 <= size <= 64). *)

val size : t -> int

val run : t -> (int -> unit) -> unit
(** [run t job] executes [job shard] for every shard [0 .. size t - 1]
    (shard 0 on the calling domain) and returns once all shards have
    finished.  A shard's exception is re-raised after the barrier. *)

val shutdown : t -> unit
(** Stop and join the worker domains.  Idempotent. *)

val with_pool : int -> (t -> 'a) -> 'a
(** [with_pool size f] runs [f] with a fresh pool and always shuts it
    down, including on exception. *)
