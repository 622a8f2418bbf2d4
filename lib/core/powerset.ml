(** Powerset composition [P(U)]: finite sets of elements of an unordered
    universe under union.

    This is the lattice of the grow-only set (Fig. 2b).  Decomposition
    (Appendix C): [⇓s = { {e} | e ∈ s }] — the singletons, which are
    exactly the join-irreducibles of a powerset lattice.

    {b Shared structure.}  The elements live in an {!Avl.Map} ordered by
    [E.compare] and bound to [()] (so the sorted-element codec is
    unchanged).  [add] and [join] return their first operand physically
    when the second adds nothing, so successive versions of a state share
    every untouched subtree, and [delta] (set difference), [leq]
    (subset), [equal] and [redundancy] (intersection) walk both trees
    together and skip those subtrees: against a recent version they cost
    the change times the height.  A lopsided pair (one operand a single
    element or at most an eighth of the other, the δ-group-vs-state shape)
    walks the small side with membership tests in the big one instead.

    {b Cached sizes.}  The representation carries the cardinal (which is
    the weight) and the byte size, as {!Map_lattice} does: [add] adds the
    new element's; [join] starts from the sum of both operands' and
    subtracts each element its union finds in both; Δ and redundancy
    results are measured by one fold over the result.  [weight] and
    [byte_size] are therefore O(1). *)

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
  module S = Avl.Map (E)

  type t = {
    s : unit S.t;
    c : int;  (** cardinal. *)
    b : int;  (** Σ [E.byte_size] over the elements. *)
  }

  let bottom = { s = S.empty; c = 0; b = 0 }
  let is_bottom t = S.is_empty t.s
  let weight t = t.c
  let byte_size t = t.b
  let singleton e = { s = S.singleton e (); c = 1; b = E.byte_size e }

  let add e t =
    let s = S.add e () t.s in
    if s == t.s then t else { s; c = t.c + 1; b = t.b + E.byte_size e }

  (* A tree built from [t]'s: [t] itself when it kept all of it, else
     measured by one fold. *)
  let of_tree t s =
    if s == t.s then t
    else if S.is_empty s then bottom
    else
      let c = ref 0 and b = ref 0 in
      S.iter
        (fun e () ->
          incr c;
          b := !b + E.byte_size e)
        s;
      { s; c = !c; b = !b }

  let join t1 t2 =
    if t1.s == t2.s then t1
    else
      (* The disjoint sum minus every element the union finds in both. *)
      let c = ref (t1.c + t2.c) and b = ref (t1.b + t2.b) in
      let s =
        S.union
          (fun e () () ->
            decr c;
            b := !b - E.byte_size e)
          t1.s t2.s
      in
      if s == t1.s then t1
      else if s == t2.s then t2
      else { s; c = !c; b = !b }

  (* Whether [t1] is walked with a membership test per element in [t2]
     (the δ-group-vs-state shape) instead of together with [t2]. *)
  let small t1 t2 = t1.c <= 1 || 8 * t1.c <= t2.c
  let always _ _ = true

  let leq t1 t2 =
    t1.s == t2.s
    || t1.c <= t2.c
       &&
       if small t1 t2 then S.for_all (fun e () -> S.mem e t2.s) t1.s
       else S.sub always t1.s t2.s

  let equal t1 t2 =
    t1.s == t2.s || (t1.c = t2.c && t1.b = t2.b && S.sub always t1.s t2.s)

  let compare t1 t2 = S.compare (fun () () -> 0) t1.s t2.s
  let decompose t = S.fold (fun e () acc -> singleton e :: acc) t.s []

  let fold_decompose f t acc =
    S.fold (fun e () acc -> f (singleton e) acc) t.s acc

  (* Keeps the elements of [t1.s] that are ([keep = true]) or are not in
     [t2.s], testing each for membership. *)
  let lookup_walk keep t1 t2 =
    of_tree t1
      (S.filter_map
         (fun e () -> if S.mem e t2.s = keep then Some () else None)
         t1.s)

  (* The irreducibles of a powerset are the singletons, so Δ is exactly
     set difference and redundancy intersection. *)
  let delta t1 t2 =
    if is_bottom t1 || is_bottom t2 then t1
    else if small t1 t2 then lookup_walk false t1 t2
    else of_tree t1 (S.diff (fun () () -> None) t1.s t2.s)

  let redundancy t1 t2 =
    if is_bottom t1 || is_bottom t2 then bottom
    else if small t2 t1 then lookup_walk true t2 t1
    else if small t1 t2 then lookup_walk true t1 t2
    else of_tree t1 (S.inter (fun () () -> Some ()) t1.s t2.s)

  let mem e t = S.mem e t.s
  let elements t = S.keys t.s
  let cardinal = weight

  let of_list l =
    of_tree bottom (S.of_sorted_list Fun.id ignore (List.sort_uniq E.compare l))

  let fold f t acc = S.fold (fun e () acc -> f e acc) t.s acc
  let empty = bottom

  (* Encoded as the sorted element list; decoding re-canonicalizes via
     [of_list] (sort, dedupe, build balanced), so duplicate or
     mis-ordered elements in corrupt input still yield a valid set. *)
  let codec =
    Crdt_wire.Codec.conv elements of_list (Crdt_wire.Codec.list E.codec)

  let pp ppf t =
    Format.fprintf ppf "@[<1>{%a}@]"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@ ")
         E.pp)
      (elements t)
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
