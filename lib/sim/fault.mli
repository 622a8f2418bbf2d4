(** Adversity plans for the simulation engine: per-message randomness
    (duplication, loss, reordering), scheduled link partitions, per-link
    delay, and node crash–restart.  See {!Runner} for the execution
    semantics; partition/delay/crash decisions are pure functions of
    [(round, src, dst)], so they are bit-identical at every domain
    count.  Fault classes beyond duplication/reordering are checked
    capabilities: {!require} rejects a plan a protocol did not declare
    tolerance for. *)

type partition = {
  from_round : int;  (** first round the cut is active. *)
  heal_round : int;  (** first round the links are back up. *)
  islands : int list list;
      (** groups that cannot talk to each other while the partition is
          active; unlisted nodes form one extra residual group. *)
}

type delay_rule = {
  src : int;
  dst : int;
  hold : int;  (** rounds a message on the link is held ([≥ 1]). *)
}

type crash = {
  victim : int;
  crash_round : int;  (** volatile state is lost at the start of this round. *)
  recover_round : int;  (** the node rejoins at the start of this round. *)
}

type plan = {
  duplicate : float;  (** probability a delivered message is duplicated. *)
  drop : float;  (** probability a message is dropped. *)
  shuffle : bool;  (** randomize delivery order within a destination. *)
  partitions : partition list;
  delays : delay_rule list;
  crashes : crash list;
  seed : int;  (** base seed of the per-destination fault streams. *)
}

val none : plan
(** No faults; seed 7. *)

val partition :
  from_round:int -> heal_round:int -> int list list -> partition
(** Smart constructors.  They raise [Invalid_argument] on scheduling
    mistakes that need no node/round context (empty island list,
    non-positive windows, hold < 1); {!validate} performs the full
    plan check. *)

val delay : src:int -> dst:int -> hold:int -> delay_rule
val crash : victim:int -> crash_round:int -> recover_round:int -> crash

val rng_active : plan -> bool
(** Whether the plan consumes per-destination PRNG streams
    (duplicate/drop/shuffle). *)

val active : plan -> bool
(** Whether the plan injects any fault: a {!rng_active} class, a
    partition, a delay or a crash. *)

val unsupported :
  caps:Crdt_proto.Protocol_intf.capabilities -> plan -> string list
(** Fault classes the plan demands but [caps] does not declare
    tolerance for (["drop"], ["partition"], ["delay"], ["crash"]). *)

val supported : caps:Crdt_proto.Protocol_intf.capabilities -> plan -> bool

val require :
  protocol:string -> caps:Crdt_proto.Protocol_intf.capabilities -> plan -> unit
(** @raise Invalid_argument naming the protocol and the missing fault
    classes when the plan is {!unsupported}. *)

val validate : nodes:int -> rounds:int -> plan -> unit
(** Structural validation against the run's shape.
    @raise Invalid_argument on out-of-range probabilities or node ids,
    overlapping islands or crash windows, non-positive hold, or
    heal/recovery rounds past the measured phase. *)

val island_map : nodes:int -> partition -> int array
(** Island id per node; unlisted nodes share the residual island
    [List.length islands]. *)

val last_heal : plan -> int
(** Latest scheduled heal/recovery round (0 when the plan has none) —
    the reference point for time-to-converge-after-heal. *)
