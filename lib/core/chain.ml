(** Chain (totally ordered) lattices.

    Chains are the simplest distributive lattices satisfying DCC when
    well-founded; every non-bottom element is join-irreducible, so the
    decomposition rule of Appendix C is [⇓c = {c}]. *)

(** Input for {!Make_max}: a totally ordered carrier with a least
    element. *)
module type ORDERED_WITH_BOTTOM = sig
  type t

  val compare : t -> t -> int
  val bottom : t
  val byte_size : t -> int
  val codec : t Crdt_wire.Codec.t
  val pp : Format.formatter -> t -> unit
end

(** Build the max-chain lattice over a total order: [join = max]. *)
module Make_max (O : ORDERED_WITH_BOTTOM) :
  Lattice_intf.CHAIN with type t = O.t = struct
  type t = O.t

  let bottom = O.bottom
  let compare = O.compare
  let equal a b = compare a b = 0
  let is_bottom x = equal x bottom
  let join a b = if compare a b >= 0 then a else b
  let leq a b = compare a b <= 0
  let weight x = if is_bottom x then 0 else 1
  let byte_size = O.byte_size
  let decompose x = if is_bottom x then [] else [ x ]
  let fold_decompose f x acc = if is_bottom x then acc else f x acc

  (* Every non-⊥ element of a chain is irreducible, so Δ(a,b) is either
     all of [a] or nothing. *)
  let delta a b = if leq a b then bottom else a
  let redundancy a b = if leq a b then a else bottom
  let codec = O.codec
  let pp = O.pp
end

(** Natural numbers under [max], bottom [0] — the per-replica entry
    lattice of GCounter. *)
module Max_int = Make_max (struct
  type t = int

  let compare = Int.compare
  let bottom = 0
  let byte_size _ = 8
  let codec = Crdt_wire.Codec.int
  let pp ppf = Format.fprintf ppf "%d"
end)

(** Strings under lexicographic [max], bottom [""].  Used as the second
    component of LWW registers (a totally ordered payload makes the
    lexicographic pair a lattice with deterministic tie-breaking). *)
module Max_string = Make_max (struct
  type t = string

  let compare = String.compare
  let bottom = ""
  let byte_size = String.length
  let codec = Crdt_wire.Codec.string
  let pp ppf = Format.fprintf ppf "%S"
end)

(** Booleans under [or], bottom [false] — a two-element chain. *)
module Bool_or = Make_max (struct
  type t = bool

  let compare = Bool.compare
  let bottom = false
  let byte_size _ = 1
  let codec = Crdt_wire.Codec.bool
  let pp = Format.pp_print_bool
end)
