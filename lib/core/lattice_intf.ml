(** Module signatures for state-based CRDT lattices.

    A state-based CRDT is a triple [(L, ⊑, ⊔)] where [L] is a
    join-semilattice, [⊑] a partial order, and [⊔] computes least upper
    bounds (Section II of the paper).  All lattices used here are bounded
    (they have a bottom element) and additionally support the irredundant
    join decomposition [⇓x] of Section III, which exists and is unique for
    distributive lattices satisfying the descending chain condition
    (Proposition 1 / Appendix A). *)

(** A bounded join-semilattice. *)
module type LATTICE = sig
  type t

  val bottom : t
  (** The least element [⊥], neutral for {!join}. *)

  val is_bottom : t -> bool
  (** [is_bottom x] iff [equal x bottom]. *)

  val join : t -> t -> t
  (** [join a b] is the least upper bound [a ⊔ b].  Associative,
      commutative and idempotent. *)

  val leq : t -> t -> bool
  (** The lattice partial order: [leq a b ⇔ join a b = b]. *)

  val equal : t -> t -> bool
  (** Structural lattice equality ([leq a b && leq b a]). *)

  val compare : t -> t -> int
  (** A total order used only for storing states in sets/maps; it is
      compatible with {!equal} but otherwise arbitrary (it does {e not}
      extend {!leq}). *)

  val weight : t -> int
  (** Number of irreducible elements carried by the state — the paper's
      transmission/memory metric of Table I (map entries, set elements).
      [weight bottom = 0]. *)

  val byte_size : t -> int
  (** Estimated wire size in bytes (replica identifiers count 20 B as in
      Fig. 9, integers 8 B, strings their length).  The exact encoded
      size is [Crdt_wire.Codec.encoded_size codec x]; the estimate is
      kept for the paper's Fig. 9 accounting convention and is
      law-tested to stay within a documented constant envelope of the
      exact size (DESIGN.md §6). *)

  val codec : t Crdt_wire.Codec.t
  (** Binary wire codec for states, built by composition (DESIGN.md §6).
      Decoding is total: [Error] on truncated/corrupt input, never an
      exception.  Decoded values are canonical — caches rebuilt, bottom
      map entries dropped, antichains re-maximalized — so
      [decode (encode x) = Ok x] up to {!equal}/{!compare}. *)

  val pp : Format.formatter -> t -> unit
  (** Pretty-printer for debugging and example output. *)
end

(** A lattice whose states admit the unique irredundant join decomposition
    of Section III ([⇓x], Definition 3 + Proposition 2). *)
module type DECOMPOSABLE = sig
  include LATTICE

  val decompose : t -> t list
  (** [decompose x] is the irredundant join decomposition [⇓x]: a list of
      join-irreducible states whose join is [x], such that removing any
      element yields a strictly smaller join.  [decompose bottom = []]. *)

  val fold_decompose : (t -> 'a -> 'a) -> t -> 'a -> 'a
  (** [fold_decompose f x acc] folds [f] over the irreducibles of [⇓x]
      without materializing the decomposition list:
      [fold_decompose f x acc] visits exactly the elements of
      [decompose x] (in an unspecified order). *)

  val delta : t -> t -> t
  (** [delta a b] is the optimal delta
      [Δ(a,b) = ⊔ \{ y ∈ ⇓a | y ⋢ b \}] of Section III-B, computed
      {e structurally} — set difference for powersets, a pointwise
      simultaneous walk for maps, componentwise for products — instead of
      materializing [⇓a] and filtering it.  Agrees exactly with the
      decompose-based {!Delta.Make.delta}, which the property suites keep
      as the reference oracle. *)

  val redundancy : t -> t -> t
  (** [redundancy a b] is the dual of {!delta}: the part of [a] already
      contained in [b], [⊔ \{ y ∈ ⇓a | y ⊑ b \}], so that
      [join (delta a b) (redundancy a b) = a] and
      [⇓(redundancy a b) ⊆ ⇓a].  Computed structurally like {!delta};
      agrees exactly with the decompose-based {!Delta.Make.redundancy},
      its oracle.  When [e] is an optimal delta against [x] (no
      irreducible of [e] is ⊑ [x]), [⇓(x ⊔ e)] is [⇓x] minus
      [⇓(redundancy x e)] plus [⇓e] — which is how an order-independent
      digest of [⇓x] is kept in step with each join at the cost of the
      delta, not of the state. *)
end

(** A totally-ordered decomposable lattice (a chain).  Chains are the
    first component of lexicographic products; every non-bottom element of
    a chain is join-irreducible, so [decompose x = [x]]. *)
module type CHAIN = sig
  include DECOMPOSABLE
  (** For chains, {!DECOMPOSABLE.compare} {e does} extend {!DECOMPOSABLE.leq}:
      [leq a b ⇔ compare a b <= 0]. *)
end

(** A partially ordered set, used by the antichain composition [M(P)]. *)
module type POSET = sig
  type t

  val leq : t -> t -> bool
  val compare : t -> t -> int
  val weight : t -> int
  val byte_size : t -> int
  val codec : t Crdt_wire.Codec.t
  val pp : Format.formatter -> t -> unit
end

(** A state-based CRDT: a decomposable lattice together with update
    operations.  [mutate] is the classic mutator [m] (always an inflation:
    [x ⊑ mutate op i x]); [delta_mutate] is the {e optimal} δ-mutator
    [mᵟ(x) = Δ(m(x), x)] of Section III-B, satisfying
    [m op i x = x ⊔ delta_mutate op i x]. *)
module type CRDT = sig
  include DECOMPOSABLE

  type op
  (** The data type's update operations (e.g. increment, add-element). *)

  val mutate : op -> Replica_id.t -> t -> t
  (** Classic mutator [m(x)] executed at the given replica. *)

  val delta_mutate : op -> Replica_id.t -> t -> t
  (** Optimal δ-mutator [mᵟ(x)]: the minimum state whose join with [x]
      equals [mutate op i x].  Returns {!LATTICE.bottom} when the operation
      has no effect. *)

  val prepare : op -> Replica_id.t -> t -> op
  (** Prepare-update phase of operation-based replication: rewrite the
      operation at the origin, reading the origin's current state, into
      the downstream form that is shipped and replayed remotely.  Law:
      [mutate (prepare op i x) i x = mutate op i x] (preparing never
      changes the local effect).  The prepared form must be replay-safe —
      replaying it against any causally consistent remote state yields
      the origin's effect, so the system converges to the join of the
      origins' effects (e.g. the state-dependent [Version.Bump] prepares
      into [Version.Raise_to]).  Identity for operations that are already
      replay-safe. *)

  val op_weight : op -> int
  (** Number of lattice elements an operation carries on the wire when
      shipped by operation-based synchronization (usually 1). *)

  val op_byte_size : op -> int
  (** Estimated wire size of the operation in bytes (same conventions
      as {!LATTICE.byte_size}). *)

  val op_codec : op Crdt_wire.Codec.t
  (** Binary wire codec for operations, used by operation-based
      synchronization.  Same totality contract as {!LATTICE.codec}. *)

  val pp_op : Format.formatter -> op -> unit
end
