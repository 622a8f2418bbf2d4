(** Cartesian product composition [A × B].

    Joins, order and bottom are componentwise.  The decomposition rule of
    Appendix C is
    [⇓⟨a,b⟩ = ⇓a × {⊥} ∪ {⊥} × ⇓b]:
    each irreducible of the pair lives in exactly one component. *)

module Make (A : Lattice_intf.DECOMPOSABLE) (B : Lattice_intf.DECOMPOSABLE) :
  Lattice_intf.DECOMPOSABLE with type t = A.t * B.t = struct
  type t = A.t * B.t

  let bottom = (A.bottom, B.bottom)
  let is_bottom (a, b) = A.is_bottom a && B.is_bottom b
  let join (a1, b1) (a2, b2) = (A.join a1 a2, B.join b1 b2)
  let leq (a1, b1) (a2, b2) = A.leq a1 a2 && B.leq b1 b2
  let equal (a1, b1) (a2, b2) = A.equal a1 a2 && B.equal b1 b2

  let compare (a1, b1) (a2, b2) =
    match A.compare a1 a2 with 0 -> B.compare b1 b2 | c -> c

  let weight (a, b) = A.weight a + B.weight b
  let byte_size (a, b) = A.byte_size a + B.byte_size b

  let decompose (a, b) =
    let left = List.map (fun x -> (x, B.bottom)) (A.decompose a)
    and right = List.map (fun y -> (A.bottom, y)) (B.decompose b) in
    left @ right

  let fold_decompose f (a, b) acc =
    B.fold_decompose
      (fun y acc -> f (A.bottom, y) acc)
      b
      (A.fold_decompose (fun x acc -> f (x, B.bottom) acc) a acc)

  (* Each irreducible lives in exactly one component, so Δ splits
     componentwise. *)
  let delta (a1, b1) (a2, b2) = (A.delta a1 a2, B.delta b1 b2)
  let redundancy (a1, b1) (a2, b2) = (A.redundancy a1 a2, B.redundancy b1 b2)
  let codec = Crdt_wire.Codec.pair A.codec B.codec
  let pp ppf (a, b) = Format.fprintf ppf "@[<1>(%a,@ %a)@]" A.pp a B.pp b
end
