(** Measurement records shared by the simulator and the bench harness.

    Weights count lattice elements (the Table I metric: set elements and
    map entries); byte figures follow the paper's wire-size conventions
    (node id = 20 B, int = 8 B). *)

type accounting = Estimate | Exact
    (** How byte figures are attributed: [Estimate] uses the protocols'
        byte models (node id = 20 B, int = 8 B); [Exact] additionally
        records exact framed wire sizes in the [wire_bytes] counters. *)

val accounting_name : accounting -> string

type round = Crdt_engine.Trace.counters
(** One simulated round's tallies, summed over every node: the messages
    delivered in the round with their costs, the operations applied, the
    fault tallies, [sync_rounds] = 1 when the round carried any pure
    control traffic, and the memory resident across all nodes after the
    round. *)

type summary = {
  rounds : int;
  totals : Crdt_engine.Trace.counters;
      (** the rounds' field-wise sum ({!Crdt_engine.Trace.sum}); its
          [sync_rounds] counts the rounds that carried control traffic,
          and its [memory_*] fields are sums over rounds, which the
          averages below divide out. *)
  avg_memory_weight : float;
      (** mean across rounds of system-wide resident elements. *)
  avg_memory_bytes : float;
  max_memory_weight : int;
  avg_metadata_memory_bytes : float;
}

val summarize : round array -> summary

val ops_per_sec : summary -> seconds:float -> float
(** Operations per wall-clock second; NaN on a non-positive interval. *)

val msgs_per_sec : summary -> seconds:float -> float
(** Messages per wall-clock second; NaN on a non-positive interval. *)

val total_transmission : summary -> int
(** Payload + metadata, in element units. *)

val total_transmission_bytes : summary -> int

val transmission_bytes : accounting:accounting -> summary -> int
(** Headline byte figure under the given accounting mode: exact framed
    wire bytes when [Exact], the estimate model otherwise. *)

val metadata_fraction : summary -> float
(** Metadata share of all transmitted bytes (Section V-B2); 0 when
    nothing was transmitted. *)

val ratio : baseline:int -> int -> float
(** [ratio ~baseline x = x / baseline]; NaN on a zero baseline. *)

val fratio : baseline:float -> float -> float
