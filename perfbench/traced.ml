(* Layer wrappers for the traced run.  Each functor returns a module
   with the same type equalities as its argument, so the traced stack
   is built exactly like the plain one and the benchmark's own code
   keeps using plain values with it. *)

module type CRDT = Crdt_proto.Protocol_intf.CRDT
module type PROTOCOL = Crdt_proto.Protocol_intf.PROTOCOL

let f_join = Span.fn Core "join"
let f_leq = Span.fn Core "leq"
let f_equal = Span.fn Core "equal"
let f_delta = Span.fn Core "delta"
let f_delta_mutate = Span.fn Core "delta_mutate"
let f_mutate = Span.fn Core "mutate"
let f_decompose = Span.fn Core "decompose"
let f_fold_decompose = Span.fn Core "fold_decompose"
let f_local_update = Span.fn Proto "local_update"
let f_tick = Span.fn Proto "tick"
let f_handle = Span.fn Proto "handle"
let f_state = Span.fn Proto "state"
let f_load = Span.fn Proto "load"
let f_encode = Span.fn Wire "encode"
let f_decode = Span.fn Wire "decode"
let f_wire_bytes = Span.fn Wire "message_wire_bytes"

(** The lattice layer ([lib/core]): join, ⊑, equality, Δ, the
    mutators and decomposition are spans. *)
module Crdt (C : CRDT) : CRDT with type t = C.t and type op = C.op = struct
  include C

  let join a b = Span.wrap2 f_join C.join a b
  let leq a b = Span.wrap2 f_leq C.leq a b
  let equal a b = Span.wrap2 f_equal C.equal a b
  let delta a b = Span.wrap2 f_delta C.delta a b

  let delta_mutate op i x = Span.wrap3 f_delta_mutate C.delta_mutate op i x
  let mutate op i x = Span.wrap3 f_mutate C.mutate op i x
  let decompose x = Span.wrap f_decompose C.decompose x

  let fold_decompose f x acc =
    Span.wrap3 f_fold_decompose C.fold_decompose f x acc
end

(** The protocol layer ([lib/proto]): local updates, ticks, message
    handling, state reads and restarts are spans; the message codec's
    [write]/[read] and [message_wire_bytes] are the wire layer's. *)
module Proto (P : PROTOCOL) :
  PROTOCOL
    with type crdt = P.crdt
     and type op = P.op
     and type node = P.node
     and type message = P.message = struct
  include P

  let local_update n op = Span.wrap2 f_local_update P.local_update n op
  let tick n = Span.wrap f_tick P.tick n

  let handle n ~src m =
    Span.wrap3 f_handle (fun n src m -> P.handle n ~src m) n src m

  let state n = Span.wrap f_state P.state n
  let load n s = Span.wrap2 f_load P.load n s

  let message_codec =
    Span.codec ~write:f_encode ~read:f_decode P.message_codec

  let message_wire_bytes m = Span.wrap f_wire_bytes P.message_wire_bytes m
end

(** A post-delivery hook for the socket workloads: after every
    [handle], the calling domain's observer sees the replica's new
    state, so visibility is checked after every delivery rather than
    once per tick.  The plain and the traced run both use it; in the
    traced run the observer is a bench span. *)
let f_observe = Span.fn Bench "observe"

module Hooked (P : PROTOCOL) : sig
  include
    PROTOCOL
      with type crdt = P.crdt
       and type op = P.op
       and type node = P.node
       and type message = P.message

  val set_observer : (P.crdt -> unit) -> unit
  (** Install the calling domain's observer. *)
end = struct
  include P

  let key : (P.crdt -> unit) Domain.DLS.key =
    Domain.DLS.new_key (fun () _ -> ())

  let set_observer f = Domain.DLS.set key f

  let handle n ~src m =
    let ((n', _) as r) = P.handle n ~src m in
    let observe = Domain.DLS.get key in
    if !Span.on then Span.wrap f_observe observe (P.state n')
    else observe (P.state n');
    r
end
