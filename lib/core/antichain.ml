(** Maximal-elements composition [M(P)]: finite antichains of a partial
    order, ordered by domination.

    [M(P)] is the lattice of finite sets of pairwise-incomparable elements
    of [P]; [A ⊑ B] iff every element of [A] is dominated by some element
    of [B]; join keeps the maximals of the union.  The paper lists this
    composition in Tables III/IV and Appendix C with decomposition
    [⇓s = { {e} | e ∈ s }].  It underlies multi-value registers. *)

module Make (P : Lattice_intf.POSET) : sig
  include Lattice_intf.DECOMPOSABLE

  val of_list : P.t list -> t
  (** Builds the antichain of maximal elements of the given list. *)

  val elements : t -> P.t list
  val insert : P.t -> t -> t
  (** [insert e s] joins [{e}] into [s], discarding dominated elements. *)

  val mem : P.t -> t -> bool
end = struct
  module S = Set.Make (P)

  type t = S.t

  (* Keep only elements not strictly dominated by another element. *)
  let maximals s =
    S.filter
      (fun e ->
        not
          (S.exists (fun e' -> (not (P.compare e e' = 0)) && P.leq e e') s))
      s

  let bottom = S.empty
  let is_bottom = S.is_empty
  let join a b = maximals (S.union a b)

  let leq a b = S.for_all (fun e -> S.exists (fun e' -> P.leq e e') b) a
  let equal = S.equal
  let compare = S.compare
  let weight = S.cardinal
  let byte_size s = S.fold (fun e acc -> acc + P.byte_size e) s 0
  let decompose s = S.fold (fun e acc -> S.singleton e :: acc) s []
  let fold_decompose f s acc = S.fold (fun e acc -> f (S.singleton e) acc) s acc

  (* {e} ⊑ b iff some element of [b] dominates [e]; the survivors of [a]
     are pairwise incomparable already, so their join is the plain set of
     survivors — no re-maximalization needed. *)
  let dominated b e = S.exists (fun e' -> P.leq e e') b
  let delta a b = S.filter (fun e -> not (dominated b e)) a
  let redundancy a b = S.filter (dominated b) a

  let pp ppf s =
    Format.fprintf ppf "@[<1>⟪%a⟫@]"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@ ")
         P.pp)
      (S.elements s)

  let of_list l = maximals (S.of_list l)
  let elements = S.elements
  let insert e s = join (S.singleton e) s
  let mem e s = S.mem e s

  (* Decoding re-maximalizes via [of_list], so corrupt input encoding
     comparable elements still yields a valid antichain. *)
  let codec =
    Crdt_wire.Codec.conv S.elements of_list (Crdt_wire.Codec.list P.codec)
end
