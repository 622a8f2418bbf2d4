(** Structured trace layer: replica events and the run's tallies.

    Every driver (the round-based simulator, the socket runtime) reports
    what happens to a replica through one {!sink}: a record of closures
    over plain labelled ints, which drivers call directly, so the hot
    path (a sink call per message) never allocates.  It is the only sink
    shape; what a sink does with the events is its own business:

    - {!null} ignores everything (the zero-cost default);
    - {!counting} folds the events into a {!counters} record — the one
      declaration of a run's tallies: the simulator's per-round record
      ([Crdt_sim.Metrics.round]) and its summary totals, the socket
      runtime's result and the [--metrics-out] totals of [crdtsync
      micro] and [serve] are this record, so byte accounting is defined
      exactly once;
    - {!jsonl} writes one JSON object per event straight from the
      arguments (the [--trace-out] format);
    - {!tee} duplicates events to two sinks.

    [round] is the simulator round or the runtime tick in which the
    event happened.  Cost arguments of [send] and [recv] follow the
    [Crdt_sim.Metrics] conventions: [weight]/[metadata] count lattice
    elements and metadata units, the byte arguments are the estimate
    model, and [wire_bytes] is the exact framed size (0 when the driver
    runs estimate-only accounting). *)

(** [detailed] tells drivers whether to compute the cost arguments of
    [send] (delivery costs are always computed — the counting sink needs
    them); sinks that ignore send costs set it to [false] so the hot
    path skips the work. *)
type sink = {
  detailed : bool;
  meta : string -> unit;  (** free-form run annotation. *)
  tick : node:int -> round:int -> unit;
  send :
    src:int ->
    dest:int ->
    round:int ->
    weight:int ->
    metadata:int ->
    payload_bytes:int ->
    metadata_bytes:int ->
    wire_bytes:int ->
    unit;
  recv :
    node:int ->
    src:int ->
    round:int ->
    weight:int ->
    metadata:int ->
    payload_bytes:int ->
    metadata_bytes:int ->
    wire_bytes:int ->
    unit;
      (** a message was accepted for delivery (reported once even when
          fault injection duplicates it). *)
  deliver : node:int -> src:int -> round:int -> unit;
      (** one [P.handle] application (≥ 1 per accepted message). *)
  drop : node:int -> src:int -> round:int -> unit;
  hold : node:int -> src:int -> round:int -> unit;
      (** captured by a per-link delay; delivered in a later round. *)
  cut : node:int -> src:int -> round:int -> unit;
      (** discarded by an active partition. *)
  crash : node:int -> round:int -> unit;
  recover : node:int -> round:int -> unit;
  finish : node:int -> round:int -> unit;
      (** the replica finished (converged / agreed to stop); [jsonl]
          writes it as a ["done"] line. *)
}

val null : sink
(** Ignores everything; [detailed = false]. *)

(** A run's additive tallies: message counts and transmission costs bump
    at {e delivery} ([recv]), never at send, so a dropped message costs
    nothing; [sent] counts send attempts and [delivered] counts handle
    applications (duplicates included).  The three [memory_*] fields and
    [ops_applied] are snapshots drivers set directly — the counting sink
    never touches them.  The simulator keeps one record per round
    ([Crdt_sim.Metrics.round]); the socket runtime one per process. *)
type counters = {
  mutable sent : int;
  mutable delivered : int;
  mutable messages : int;
  mutable payload : int;  (** lattice elements shipped. *)
  mutable metadata : int;  (** metadata units shipped. *)
  mutable payload_bytes : int;
  mutable metadata_bytes : int;
  mutable wire_bytes : int;
      (** exact framed wire bytes of the delivered messages; 0 under
          estimate-only accounting. *)
  mutable ops_applied : int;  (** application operations applied. *)
  mutable dropped : int;
      (** messages lost: probabilistic drops plus messages addressed to
          a crashed node. *)
  mutable held : int;
      (** messages captured by a per-link delay; each is counted in
          [messages] later, at its delivery round. *)
  mutable partitioned : int;  (** messages cut by an active partition. *)
  mutable memory_weight : int;
      (** elements resident (summed over the nodes a record covers). *)
  mutable memory_bytes : int;
  mutable metadata_memory_bytes : int;
  mutable sync_rounds : int;
      (** rounds in which at least one pure control message (zero payload
          weight, non-zero metadata) was delivered — digest exchanges,
          reconciliation sessions and other anti-entropy chatter.  It is
          counted per record, so it does not sum across processes: each
          [serve] process counts every round it saw such traffic in,
          while the simulator counts each round once for the whole
          cluster. *)
  mutable digest_bytes : int;
      (** wire bytes of that control traffic (estimate bytes when the
          driver runs estimate-only accounting). *)
  mutable last_sync_round : int;
      (** internal: last round counted into [sync_rounds] (dedup). *)
}

val make_counters : unit -> counters
val reset_counters : counters -> unit

val sum : counters array -> counters
(** A fresh record holding the field-wise sum of the records, in array
    order ([last_sync_round] is their maximum). *)

val counting : counters -> sink
(** The shared accounting path: [recv] adds the message and its costs,
    [drop]/[hold]/[cut] bump the fault tallies, [send]/[deliver] bump
    their counts; everything else is ignored.  [detailed = false]. *)

val tee : sink -> sink -> sink
(** Events go to both sinks; [detailed] is the disjunction. *)

val jsonl : out_channel -> sink
(** Writes one JSON object per event to the channel, one per line, e.g.
    [{"ev":"send","src":0,"dest":1,"round":3,"weight":2,...}];
    [detailed = true].  The channel is flushed on [finish] and [meta],
    not per event. *)
