(** Optimal deltas from join decompositions (Section III-B).

    Given the unique irredundant decomposition [⇓a], the minimum
    "difference" between states [a] and [b] is

    {v Δ(a,b) = ⊔ { y ∈ ⇓a | y ⋢ b } v}

    which satisfies [Δ(a,b) ⊔ b = a ⊔ b] and is dominated by every other
    [c] with [c ⊔ b = a ⊔ b].  Optimal δ-mutators follow as
    [mᵟ(x) = Δ(m(x), x)].

    This generic, list-based formulation materializes [⇓a] and filters
    it; it is kept as the {e reference oracle} for the structural
    {!Lattice_intf.DECOMPOSABLE.delta} and
    {!Lattice_intf.DECOMPOSABLE.redundancy} that each composition
    implements directly (the hot paths use the structural versions; the
    property suites check both agree on every instance). *)

module Make (L : Lattice_intf.DECOMPOSABLE) = struct
  (** [delta a b] is the optimal delta [Δ(a,b)]. *)
  let delta a b =
    List.fold_left
      (fun acc y -> if L.leq y b then acc else L.join acc y)
      L.bottom (L.decompose a)

  (** [delta_mutator m x] derives the optimal δ-mutator of a classic
      mutator [m]: the minimum state whose join with [x] is [m x]. *)
  let delta_mutator m x = delta (m x) x

  (** [redundancy a b] is the dual projection: the part of [a] already
      contained in [b], i.e. [⊔ { y ∈ ⇓a | y ⊑ b }]
      ([join (delta a b) (redundancy a b) = a]).  The reference oracle
      for the structural {!Lattice_intf.DECOMPOSABLE.redundancy}. *)
  let redundancy a b =
    List.fold_left
      (fun acc y -> if L.leq y b then L.join acc y else acc)
      L.bottom (L.decompose a)

  (** Check that a list of states is a join decomposition of [x]
      (Definition 2): its join produces [x]. *)
  let is_decomposition ds x =
    L.equal (List.fold_left L.join L.bottom ds) x

  (** Check irredundancy (Definition 3): removing any element strictly
      shrinks the join. *)
  let is_irredundant ds =
    let total = List.fold_left L.join L.bottom ds in
    let rec go prefix = function
      | [] -> true
      | d :: rest ->
          let without =
            List.fold_left L.join L.bottom (List.rev_append prefix rest)
          in
          (not (L.equal without total)) && go (d :: prefix) rest
    in
    go [] ds

  (** Check join-irreducibility of a single state (Definition 1) with
      respect to its own decomposition: [x] is irreducible iff [x ≠ ⊥] and
      [⇓x = {x}]. *)
  let is_irreducible x =
    match L.decompose x with [ d ] -> L.equal d x | _ -> false
end
