(** First-class protocol × CRDT registry.

    The single place where "a protocol name" and "a CRDT name" become
    modules: every driver (CLI micro and serve, harness, benches, tests)
    dispatches through {!find_protocol}/{!find_crdt} and
    {!instantiate} instead of keeping its own [match]-ladder, so adding a
    protocol variant or a benchmark data type is a one-line change here
    and every layer picks it up.

    Protocols are packed {e constructors} ({!PROTO_MAKER}): a name plus a
    functor from a CRDT to a {!Crdt_proto.Protocol_intf.PROTOCOL}, since
    a protocol instance only exists for a concrete lattice.  CRDTs are
    packed modules with their registry metadata: the Table I micro
    workload, the deterministic serve workload, and per-protocol
    exclusions for cells that are not meaningful.  Workloads are
    deterministic functions of (round, node) — they never read the
    replica's delivered state — so every protocol, op-based replay
    included, performs the same operation sequence. *)

(** A named protocol constructor. *)
module type PROTO_MAKER = sig
  val name : string
  (** Must equal [protocol_name] of every instance (checked by
      [test_registry]). *)

  val doc : string

  module Make (C : Crdt_proto.Protocol_intf.CRDT) :
    Crdt_proto.Protocol_intf.PROTOCOL with type crdt = C.t and type op = C.op
end

type proto = (module PROTO_MAKER)

val protocols : proto list
(** Every registered protocol, in the harness's stable reporting order:
    state-based, delta classic/BP/RR/BP+RR/BP+RR-ack, scuttlebutt ± GC,
    op-based, merkle, conflict-sync. *)

val protocol_names : string list

val find_protocol : string -> proto
(** @raise Invalid_argument on an unknown name, listing the known ones. *)

val protocol_name : proto -> string
val protocol_doc : proto -> string

val capabilities : proto -> Crdt_proto.Protocol_intf.capabilities
(** Declared fault capabilities of the protocol (independent of the
    CRDT it is instantiated with). *)

val instantiate :
  proto ->
  (module Crdt_proto.Protocol_intf.CRDT with type t = 'a and type op = 'b) ->
  (module Crdt_proto.Protocol_intf.PROTOCOL
     with type crdt = 'a
      and type op = 'b)

(** A benchmark CRDT with its registry metadata. *)
module type CRDT_SPEC = sig
  module C : Crdt_proto.Protocol_intf.CRDT

  val name : string
  val doc : string

  val excluded : string -> string option
  (** [excluded proto] is [Some reason] when the protocol × CRDT cell is
      not meaningful (the driver should skip or reject it). *)

  val micro_ops :
    nodes:int -> k:int -> round:int -> node:int -> C.t -> C.op list
  (** The Table I micro workload ([k] is the GMap key-percentage knob;
      other CRDTs ignore it). *)

  val serve_ops : id:int -> tick:int -> C.t -> C.op list
  (** Deterministic per-tick operations for the socket runtime; designed
      so the converged state is predictable from [(replicas, ticks)]
      alone, making cross-process convergence checkable. *)
end

type crdt_spec = (module CRDT_SPEC)

val crdts : crdt_spec list
val crdt_names : string list

val find_crdt : string -> crdt_spec
(** @raise Invalid_argument on an unknown name, listing the known ones. *)

val crdt_name : crdt_spec -> string
