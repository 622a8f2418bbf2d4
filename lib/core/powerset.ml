(** Powerset composition [P(U)]: finite sets of elements of an unordered
    universe under union.

    This is the lattice of the grow-only set (Fig. 2b).  Decomposition
    (Appendix C): [⇓s = { {e} | e ∈ s }] — the singletons, which are
    exactly the join-irreducibles of a powerset lattice. *)

(** Universe elements: only equality/ordering is needed, no lattice
    structure. *)
module type ELT = sig
  type t

  val compare : t -> t -> int
  val byte_size : t -> int
  val codec : t Crdt_wire.Codec.t
  val pp : Format.formatter -> t -> unit
end

module Make (E : ELT) : sig
  include Lattice_intf.DECOMPOSABLE

  val empty : t
  val add : E.t -> t -> t
  val mem : E.t -> t -> bool
  val singleton : E.t -> t
  val elements : t -> E.t list
  val cardinal : t -> int
  val of_list : E.t list -> t
  val fold : (E.t -> 'a -> 'a) -> t -> 'a -> 'a
end = struct
  module S = Set.Make (E)

  type t = S.t

  let bottom = S.empty
  let is_bottom = S.is_empty
  let join = S.union
  let leq = S.subset
  let equal = S.equal
  let compare = S.compare
  let weight = S.cardinal
  let byte_size s = S.fold (fun e acc -> acc + E.byte_size e) s 0
  let decompose s = S.fold (fun e acc -> S.singleton e :: acc) s []
  let fold_decompose f s acc = S.fold (fun e acc -> f (S.singleton e) acc) s acc

  (* The irreducibles of a powerset are the singletons, so Δ is exactly
     set difference — no singleton allocation at all. *)
  let delta = S.diff
  let redundancy = S.inter

  (* Encoded as the sorted element list; decoding re-canonicalizes via
     [S.of_list], so duplicate or mis-ordered elements in corrupt input
     still yield a valid set. *)
  let codec =
    Crdt_wire.Codec.conv S.elements S.of_list
      (Crdt_wire.Codec.list E.codec)

  let pp ppf s =
    Format.fprintf ppf "@[<1>{%a}@]"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@ ")
         E.pp)
      (S.elements s)

  let empty = S.empty
  let add = S.add
  let mem = S.mem
  let singleton = S.singleton
  let elements = S.elements
  let cardinal = S.cardinal
  let of_list = S.of_list
  let fold = S.fold
end

(** Common universes. *)
module Int_elt = struct
  type t = int

  let compare = Int.compare
  let byte_size _ = 8
  let codec = Crdt_wire.Codec.int
  let pp ppf = Format.fprintf ppf "%d"
end

module String_elt = struct
  type t = string

  let compare = String.compare
  let byte_size = String.length
  let codec = Crdt_wire.Codec.string
  let pp ppf = Format.fprintf ppf "%S"
end
