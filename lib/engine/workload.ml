(** Micro-benchmark workload generators (Table I).

    Each node performs one periodic event per round:

    - {b GCounter}: a single increment; measurement counts map entries.
    - {b GSet}: addition of a globally unique element; measurement counts
      set elements.
    - {b GMap K%}: each of the [N] nodes changes the value of [K/N]% of
      the keys, so that globally [K]% of all keys are modified within
      each synchronization interval; measurement counts map entries.  The
      paper fixes the key space at 1000 keys and notes that the GCounter
      benchmark is the special case [K = 100] with [N] keys. *)

open Crdt_core

(** The shape in which every workload source feeds the engine: the
    operations node [node] applies at the start of [round], reading its
    local [state].  The simulator's [ops] argument, the serve loop's
    per-tick generator and the Retwis generator all flow through this
    one type, so a workload written against it runs on any transport. *)
type ('state, 'op) gen = round:int -> node:int -> 'state -> 'op list

(** Globally unique element for (round, node): rounds × nodes never
    collide. *)
let gset ~nodes:n ~round ~node _state : Gset.Of_int.op list =
  ignore n;
  [ (round * 1_000_003) + node ]

let gcounter ~round:_ ~node:_ _state : Gcounter.op list = [ Gcounter.Inc 1 ]

(** Contended GSet workload: nodes add elements drawn round-robin from a
    small pool, so most additions re-add elements already present.  Used
    by the δ-mutator-optimality ablation: a naive δ-mutator ships a
    redundant singleton on every re-add, an optimal one ships nothing. *)
let gset_contended ~pool ~round ~node _state : Gset.Of_int.op list =
  [ (round + node) mod pool ]

(** Key block updated by [node] in [round] for GMap K%.

    [per_node = total_keys * k / 100 / n] keys per node per round; blocks
    are disjoint across nodes within a round and rotate with the round so
    every key is eventually touched. *)
let gmap_keys ~total_keys ~k ~nodes:n ~round ~node =
  let per_node = max 1 (total_keys * k / 100 / n) in
  let base = ((node * per_node) + (round * per_node * n)) mod total_keys in
  List.init per_node (fun j -> (base + j) mod total_keys)

let gmap ~total_keys ~k ~nodes ~round ~node _state :
    Gmap.Versioned.op list =
  List.map
    (fun key -> Gmap.Versioned.Apply (key, Version.Bump))
    (gmap_keys ~total_keys ~k ~nodes ~round ~node)

(** Default experiment scale, matching the paper's micro-benchmarks:
    1000 GMap keys. *)
module Defaults = struct
  let total_keys = 1000
end
