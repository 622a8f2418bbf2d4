(** Durable replica storage: append-only segment log + checkpoints.

    A store directory holds numbered segment files
    ([segment-%016d.log]); each segment is a sequence of records framed
    exactly like wire messages ({!Crdt_wire.Frame}: magic / version /
    kind / varint payload length), with store-specific kind bytes and a
    CRC-32 of the kind byte followed by the body prepended to every
    payload (the kind is under the checksum because the three kind
    values are a single bit flip apart).  Three record kinds
    exist: [Delta] (one wire-encoded delta), [Checkpoint] (one
    wire-encoded full state) and [SegmentSeal] (end-of-segment marker
    written when a segment rolls).  See DESIGN.md §11 for the full
    on-disk format specification.

    Durability contract: a delta is appended before (or in the same
    process step as) the state change is acknowledged anywhere, so the
    on-disk image is always a {e lattice prefix} of the in-memory state
    — recovery yields [checkpoint ⊔ deltas ⊑ live state].  Joins are
    idempotent and commutative, so replay order does not matter and a
    delta surviving twice (around a checkpoint) is harmless.

    Torn-tail tolerance: a crash can leave the {e final} segment with a
    truncated or corrupt last record; recovery drops everything from the
    first invalid byte to EOF and reports the dropped byte count.  The
    same damage in a non-final segment means real corruption (segments
    are sealed and fsynced before a successor is created) and raises
    {!Corrupt}. *)

type fsync_policy =
  | Always  (** fsync after every append — maximal durability. *)
  | Interval of float
      (** fsync at most once per [s] seconds of appends (group commit). *)
  | Never  (** leave flushing to the OS; checkpoints still fsync. *)

val fsync_policy_of_string : string -> (fsync_policy, string) result
(** ["always"] | ["interval"] | ["interval:<seconds>"] | ["never"]. *)

val fsync_policy_name : fsync_policy -> string

type recovery = {
  checkpoint : string option;  (** last durable full-state image. *)
  deltas : string list;
      (** delta bodies appended after that checkpoint, oldest first. *)
  replayed_records : int;  (** [List.length deltas]. *)
  replayed_bytes : int;  (** summed body bytes of [deltas]. *)
  checkpoint_bytes : int;  (** body bytes of [checkpoint] (0 if none). *)
  truncated_bytes : int;
      (** torn-tail bytes dropped from the final segment. *)
  segments : int;  (** segment files scanned. *)
}

exception Corrupt of string
(** Raised when a non-final segment is damaged — torn tails are only
    expected (and tolerated) where a crash can produce them — and by
    {!Image.recover} on a record body that does not decode. *)

val read : dir:string -> recovery
(** Read-only recovery scan of [dir] (which may not exist — that is an
    empty store).  Does not modify the directory.  One pass: each
    segment streams from its file through one {!Crdt_wire.Frame.feed},
    so the time is linear in the log, and the memory beyond the bodies
    returned is bounded by the largest record plus one 64 KiB read
    chunk, whatever the segment size. *)

val default_segment_bytes : int
(** 4 MiB: the roll threshold {!open_} uses unless told otherwise. *)

type t
(** An open store with an active segment accepting appends. *)

val open_ : ?segment_bytes:int -> ?fsync:fsync_policy -> dir:string -> unit
  -> t * recovery
(** Open (creating [dir] if needed) and recover: scans existing
    segments in the one pass {!read} makes (same time and memory
    bounds), physically truncates a torn tail off the final segment,
    and positions the writer after the last valid record.
    [segment_bytes] (default {!default_segment_bytes}) is the roll
    threshold. *)

val append_delta : t -> string -> unit
(** Append one wire-encoded delta body.  Durability per the store's
    {!fsync_policy}. *)

val checkpoint : t -> string -> unit
(** Append a full-state checkpoint record, fsync it (always — a
    checkpoint authorizes pruning), then delete every segment older
    than the one holding it.  A crash at any point leaves either the
    new checkpoint durable or the previous checkpoint (and all its
    deltas) untouched. *)

val deltas_since_checkpoint : t -> int
(** Delta records appended (or recovered) since the last checkpoint —
    the caller's checkpoint-interval counter. *)

val appended_bytes : t -> int
(** Total delta body bytes appended through this handle. *)

val sync : t -> unit
(** Force an fsync of the active segment now (used at clean shutdown). *)

val close : t -> unit
(** [sync] + close the active segment's descriptor. *)

(** {1 Durable image policy}

    The one policy that maps a replica's state onto a store: the image
    is [checkpoint ⊔ deltas]; each durability point appends
    [Δ(state, last image written)] and rolls a checkpoint every N
    deltas.  [crdtsync serve --data-dir] and the recovery bench both
    run it. *)

module type LATTICE = sig
  type t

  val bottom : t
  val is_bottom : t -> bool
  val join : t -> t -> t
  val delta : t -> t -> t
  (** [delta a b]: the part of [a] not already in [b]. *)

  val codec : t Crdt_wire.Codec.t
end

module Image (C : LATTICE) : sig
  val recover : dir:string -> recovery -> C.t
  (** [checkpoint ⊔ deltas] of a recovery scan ([bottom] for an empty
      store).  Raises {!Corrupt}, naming [dir], on a record whose body
      does not decode. *)

  val persister : t -> checkpoint_every:int -> C.t -> C.t -> unit
  (** [persister store ~checkpoint_every image] is a persist sink for
      a store that already holds [image] (its {!recover}ed value, or
      [bottom]).  Called with a state, it appends [Δ(state, last)] when
      that is not bottom, then writes a checkpoint of the state once
      {!deltas_since_checkpoint} reaches [checkpoint_every] (0 =
      never); [last] then becomes the state. *)
end
