(** Micro-benchmark workload generators (Table I).

    Each node performs one periodic event per round: a unique-element
    addition (GSet), a single increment (GCounter), or a block of key
    updates covering K/N % of the key space (GMap K%).

    This is the one home of workload definitions: the simulator, the
    serve loop and domain-specific generators (Retwis) all produce or
    consume the {!gen} shape. *)

open Crdt_core

type ('state, 'op) gen = round:int -> node:int -> 'state -> 'op list
(** The shape in which every workload source feeds the engine: the
    operations node [node] applies at the start of [round], reading its
    local [state].  The simulator passes a [gen] straight to
    [Runner.run ~ops]; serve adapts one per tick; Retwis exposes its
    generator as a [gen] over its store. *)

val gset : nodes:int -> ('state, Gset.Of_int.op) gen
(** Addition of a globally unique element (rounds × nodes never
    collide). *)

val gcounter : ('state, Gcounter.op) gen

val gset_contended : pool:int -> ('state, Gset.Of_int.op) gen
(** Adds drawn round-robin from a small pool so most of them re-add
    present elements — the δ-mutator-optimality ablation workload. *)

val gmap_keys :
  total_keys:int -> k:int -> nodes:int -> round:int -> node:int -> int list
(** The key block node [node] updates in [round]: [total_keys·k/100/n]
    keys, disjoint across nodes within a round, rotating with the round
    so that globally K % of all keys change per synchronization
    interval. *)

val gmap :
  total_keys:int -> k:int -> nodes:int -> ('state, Gmap.Versioned.op) gen

(** Default experiment scale, matching the paper's micro-benchmarks:
    1000 GMap keys. *)
module Defaults : sig
  val total_keys : int
end
