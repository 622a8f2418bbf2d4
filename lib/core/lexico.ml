(** Lexicographic product composition [C ⋉ A] with a chain first
    component.

    The paper (Appendix B, Table III) notes that lexicographic products
    are distributive — and hence admit unique irredundant decompositions —
    only when the first component is a chain, which is how CRDT designs use
    them in practice (the single-writer principle: a version number guards
    an arbitrarily-replaceable second component, as in Cassandra counters
    and LWW registers).

    Join: the pair with the larger first component wins; on ties the
    second components join.  Decomposition (Appendix C):
    [⇓⟨c,a⟩ = ⇓c × ⇓a], computed in the quotient sublattice
    [⟨c,a⟩/⟨c,⊥⟩] (Table IV), i.e. [{⟨c,y⟩ | y ∈ ⇓a}]; when [a = ⊥] but
    [c ≠ ⊥] the element [⟨c,⊥⟩] is itself irreducible. *)

module Make (C : Lattice_intf.CHAIN) (A : Lattice_intf.DECOMPOSABLE) :
  Lattice_intf.DECOMPOSABLE with type t = C.t * A.t = struct
  type t = C.t * A.t

  let bottom = (C.bottom, A.bottom)
  let is_bottom (c, a) = C.is_bottom c && A.is_bottom a

  let join (c1, a1) (c2, a2) =
    match C.compare c1 c2 with
    | 0 -> (c1, A.join a1 a2)
    | n when n > 0 -> (c1, a1)
    | _ -> (c2, a2)

  let leq (c1, a1) (c2, a2) =
    match C.compare c1 c2 with
    | 0 -> A.leq a1 a2
    | n -> n < 0

  let equal (c1, a1) (c2, a2) = C.equal c1 c2 && A.equal a1 a2

  let compare (c1, a1) (c2, a2) =
    match C.compare c1 c2 with 0 -> A.compare a1 a2 | c -> c

  let weight (c, a) = if is_bottom (c, a) then 0 else max 1 (A.weight a)
  let byte_size (c, a) = C.byte_size c + A.byte_size a

  let decompose (c, a) =
    if is_bottom (c, a) then []
    else
      match A.decompose a with
      | [] -> [ (c, A.bottom) ]
      | ds -> List.map (fun d -> (c, d)) ds

  let fold_decompose f ((c, a) as x) acc =
    if is_bottom x then acc
    else if A.is_bottom a then f (c, A.bottom) acc
    else A.fold_decompose (fun d acc -> f (c, d) acc) a acc

  (* Every irreducible of ⟨c,a⟩ carries the same guard [c], so ⊑ against
     ⟨c',a'⟩ is decided once by the chain comparison: a smaller guard is
     wholly dominated, a larger one wholly kept, equal guards recurse. *)
  let delta ((c1, a1) as x) (c2, a2) =
    if is_bottom x then bottom
    else
      match C.compare c1 c2 with
      | 0 ->
          let d = A.delta a1 a2 in
          if A.is_bottom d then bottom else (c1, d)
      | n when n > 0 -> x
      | _ -> bottom

  (* The dual split: a smaller guard is wholly covered, a larger one not
     at all, equal guards recurse — and a bare ⟨c,⊥⟩ is covered by any
     ⟨c,a'⟩. *)
  let redundancy ((c1, a1) as x) (c2, a2) =
    if is_bottom x then bottom
    else
      match C.compare c1 c2 with
      | 0 ->
          if A.is_bottom a1 then x
          else
            let r = A.redundancy a1 a2 in
            if A.is_bottom r then bottom else (c1, r)
      | n when n > 0 -> bottom
      | _ -> x

  let codec = Crdt_wire.Codec.pair C.codec A.codec
  let pp ppf (c, a) = Format.fprintf ppf "@[<1>⟨%a;@ %a⟩@]" C.pp c A.pp a
end
