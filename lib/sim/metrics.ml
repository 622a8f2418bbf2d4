(** Measurement records shared by the simulator and the bench harness.

    All weights count lattice elements (the Table I metric: set elements
    and map entries); byte figures follow the paper's wire-size
    conventions (node id = 20 B, int = 8 B). *)

(** How byte figures are attributed.  [Estimate] uses the protocols'
    [payload_bytes]/[metadata_bytes] models (node id = 20 B, int = 8 B);
    [Exact] additionally records the exact framed wire size of every
    delivered message ([message_wire_bytes], i.e. what [lib/wire] would
    put on a socket) in the [wire_bytes] counters. *)
type accounting = Estimate | Exact

let accounting_name = function Estimate -> "estimate" | Exact -> "exact"

type round = Crdt_engine.Trace.counters

type summary = {
  rounds : int;
  totals : Crdt_engine.Trace.counters;
  avg_memory_weight : float;
  avg_memory_bytes : float;
  max_memory_weight : int;
  avg_metadata_memory_bytes : float;
}

let summarize (rounds : round array) : summary =
  let totals = Crdt_engine.Trace.sum rounds in
  let avg x = float_of_int x /. float_of_int (max (Array.length rounds) 1) in
  {
    rounds = Array.length rounds;
    totals;
    avg_memory_weight = avg totals.memory_weight;
    avg_memory_bytes = avg totals.memory_bytes;
    max_memory_weight =
      Array.fold_left (fun acc (r : round) -> max acc r.memory_weight) 0 rounds;
    avg_metadata_memory_bytes = avg totals.metadata_memory_bytes;
  }

(** Grand total of transmitted units (payload + metadata). *)
let total_transmission s = s.totals.payload + s.totals.metadata

let total_transmission_bytes s =
  s.totals.payload_bytes + s.totals.metadata_bytes

(** The headline byte figure under the given accounting mode: exact
    framed wire bytes when [Exact], the estimated payload + metadata
    model otherwise. *)
let transmission_bytes ~accounting s =
  match accounting with
  | Exact -> s.totals.wire_bytes
  | Estimate -> total_transmission_bytes s

(** Metadata share of all transmitted bytes (Section V-B2). *)
let metadata_fraction s =
  let total = total_transmission_bytes s in
  if total = 0 then 0.
  else float_of_int s.totals.metadata_bytes /. float_of_int total

(** Throughput over a measured wall-clock interval (the benches report
    ops/sec and messages/sec instead of only totals). *)
let ops_per_sec s ~seconds =
  if seconds <= 0. then Float.nan
  else float_of_int s.totals.ops_applied /. seconds

let msgs_per_sec s ~seconds =
  if seconds <= 0. then Float.nan
  else float_of_int s.totals.messages /. seconds

let ratio ~baseline x =
  if baseline = 0 then Float.nan else float_of_int x /. float_of_int baseline

let fratio ~baseline x = if baseline = 0. then Float.nan else x /. baseline
