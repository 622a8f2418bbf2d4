(* What one repetition of a workload measured.  Workloads fill the
   fields they exercise and leave the rest at their [make] values. *)

type t = {
  mutable setup_s : float;  (** workload start → first measured op. *)
  mutable ops : int;  (** operations offered. *)
  mutable failed : int;  (** operations not visible at every replica. *)
  mutable span_s : float;  (** first op due → last op visible everywhere. *)
  mutable cpu_s : float;  (** process CPU over the measured phase. *)
  mutable catchup_s : float;
  visible_ms : Measure.samples;  (** due time → visible everywhere. *)
  visible_rounds : Measure.samples;  (** the same, in rounds or ticks. *)
  gen_lag_ms : Measure.samples;  (** due time → applied (serve). *)
  mutable wire_bytes : int;
  mutable messages : int;
  mutable payload : int;
  mutable writes : int;
  mutable ticks : int;
  mutable tick_p99_us : float;
  mutable digest_bytes : int;
  mutable sync_rounds : int;
  mutable reconcile_bytes : int;
  append_us : Measure.samples;  (** store appends, fsync included. *)
  mutable append_bytes : int;
  mutable checkpoint_s : float;
  mutable recover_ms : float;
  mutable gate : string list;  (** failed correctness checks. *)
}

let make () =
  {
    setup_s = 0.;
    ops = 0;
    failed = 0;
    span_s = 0.;
    cpu_s = 0.;
    catchup_s = 0.;
    visible_ms = Measure.samples ();
    visible_rounds = Measure.samples ();
    gen_lag_ms = Measure.samples ();
    wire_bytes = 0;
    messages = 0;
    payload = 0;
    writes = 0;
    ticks = 0;
    tick_p99_us = 0.;
    digest_bytes = 0;
    sync_rounds = 0;
    reconcile_bytes = 0;
    append_us = Measure.samples ();
    append_bytes = 0;
    checkpoint_s = 0.;
    recover_ms = 0.;
    gate = [];
  }

let fail r fmt = Printf.ksprintf (fun m -> r.gate <- m :: r.gate) fmt
