(** Registry dispatch for the SEC checker: run {!Checker} tiers against
    any named protocol × CRDT cell.

    The op script of every cell is the registry's deterministic serve
    workload ([CRDT_SPEC.serve_ops]), so the checker exercises the same
    operation mix the socket runtime serves and any counterexample
    schedule replays bit-for-bit. *)

type tier_cfg = {
  checker : Checker.config;
  rounds : int;  (** exhaustive tier: rounds per schedule. *)
  max_faults : int;  (** exhaustive tier: non-deliver fate budget. *)
  seed : int;  (** random tier: base PRNG seed. *)
  walks : int;  (** random tier: number of walks (0 disables the tier). *)
  walk_len : int;  (** random tier: atomic steps per walk. *)
}

val default_cfg : tier_cfg
(** 2 replicas / 3 rounds / 2 faults exhaustively, then 64 random walks
    of 80 steps over 3 replicas (the random tier widens the group by
    one). *)

type failure = {
  invariant : string;
  detail : string;
  schedule : string;  (** original counterexample, {!Schedule.to_string}. *)
  shrunk : string;  (** locally minimal counterexample. *)
}

type report = {
  proto : string;
  crdt : string;
  exhaustive : int;  (** schedules fully explored by the exhaustive tier. *)
  walks : int;  (** random walks fully explored. *)
  failure : failure option;
}

val cells : unit -> (string * string) list
(** Every (protocol, crdt) pair of the registry: protocols in reporting
    order, each crossed with every CRDT in registry order. *)

val check_cell : tier_cfg -> proto:string -> crdt:string -> report
(** Run the exhaustive tier then (if no violation and [walks > 0]) the
    random tier; a violation is shrunk before reporting.
    @raise Invalid_argument on unknown names. *)

val replay :
  Checker.config ->
  proto:string ->
  crdt:string ->
  schedule:string ->
  Checker.violation option
(** Re-execute one schedule (as printed in a {!failure}) against a fresh
    cell. @raise Invalid_argument on unknown names or a malformed
    schedule. *)
