(** Finite-function composition [U ↪→ A]: maps from an unordered key set
    to a lattice, absent keys standing for [⊥].

    This is the lattice underlying GCounter ([I ↪→ ℕ]), GMap and the
    PNCounter of Appendix C.  Join is pointwise; the order is pointwise;
    decomposition (Appendix C) is
    [⇓f = { {k ↦ v} | k ∈ dom f ∧ v ∈ ⇓f(k) }].

    Invariant: no key is ever bound to [⊥] (such a binding is
    indistinguishable from absence and would break [equal]/[weight]).

    {b Cached sizes.}  The representation carries the map's total weight
    and byte size, maintained incrementally: [join] corrects the sum of
    both operands' sizes by the overlap on collided keys (which the union
    callback visits anyway), [set] adjusts by the replaced binding.
    [weight] and [byte_size] are therefore O(1) — they sit on the
    simulator's per-message accounting and per-round memory-snapshot hot
    paths, where the former fold-the-whole-map cost dominated profiles.
    When the value lattice itself caches its sizes (e.g. nested maps),
    the per-collision correction stays O(1) too. *)

module type KEY = sig
  type t

  val compare : t -> t -> int
  val byte_size : t -> int
  val codec : t Crdt_wire.Codec.t
  val pp : Format.formatter -> t -> unit
end

module Make (K : KEY) (V : Lattice_intf.DECOMPOSABLE) : sig
  include Lattice_intf.DECOMPOSABLE

  val empty : t

  val find : K.t -> t -> V.t
  (** Total lookup: absent keys map to [V.bottom]. *)

  val singleton : K.t -> V.t -> t
  (** [singleton k v]; returns [bottom] when [v] is [⊥]. *)

  val set : K.t -> V.t -> t -> t
  (** [set k v m] replaces the binding of [k] (removing it if [v = ⊥]).
      Unlike {!join}, this is not necessarily an inflation; mutators must
      guarantee inflation themselves. *)

  val join_entry : K.t -> V.t -> t -> t
  (** [join_entry k v m = join m (singleton k v)]. *)

  val cardinal : t -> int
  val bindings : t -> (K.t * V.t) list
  val keys : t -> K.t list
  val fold : (K.t -> V.t -> 'a -> 'a) -> t -> 'a -> 'a
  val of_list : (K.t * V.t) list -> t
end = struct
  module M = Map.Make (K)

  type t = {
    m : V.t M.t;
    c : int;  (** cardinal. *)
    w : int;  (** Σ [V.weight] over the bindings. *)
    b : int;  (** Σ [K.byte_size] + [V.byte_size] over the bindings. *)
  }

  let bottom = { m = M.empty; c = 0; w = 0; b = 0 }
  let is_bottom t = M.is_empty t.m
  let weight t = t.w
  let byte_size t = t.b

  let join_union t1 t2 =
    (* Start from the disjoint sum and subtract the overlap: the union
       callback runs exactly on the collided keys, where the key and the
       two value sizes were each counted twice. *)
    let c = ref (t1.c + t2.c) in
    let w = ref (t1.w + t2.w) and b = ref (t1.b + t2.b) in
    let m =
      M.union
        (fun k v1 v2 ->
          let v = V.join v1 v2 in
          decr c;
          w := !w - V.weight v1 - V.weight v2 + V.weight v;
          b :=
            !b - K.byte_size k - V.byte_size v1 - V.byte_size v2
            + V.byte_size v;
          Some v)
        t1.m t2.m
    in
    { m; c = !c; w = !w; b = !b }

  let find k t = match M.find_opt k t.m with Some v -> v | None -> V.bottom

  (* The order check picks its walk by the cached cardinals.  A key
     present only in [m1] violates the order directly (the no-⊥-binding
     invariant means its value is non-bottom), so [c1 > c2] is an O(1)
     refutation by pigeonhole.  A small [m1] against a large [m2] — the
     δ-group-vs-state shape — walks only [m1] with O(log |m2|) lookups;
     comparable sizes use an allocation-free simultaneous walk over both
     ascending sequences.  (A [merge]-based walk would allocate the
     merged map just to discard it.)  Both walks short-circuit at the
     first violating key. *)
  let leq_lookup m1 m2 =
    M.for_all
      (fun k v1 ->
        match M.find_opt k m2 with Some v2 -> V.leq v1 v2 | None -> false)
      m1

  let leq_walk m1 m2 =
    let rec go s1 s2 =
      match s1 () with
      | Seq.Nil -> true
      | Seq.Cons ((k1, v1), s1') ->
          let rec advance s2 =
            match s2 () with
            | Seq.Nil -> false (* k1 (and the rest of m1) missing in m2. *)
            | Seq.Cons ((k2, v2), s2') -> (
                match K.compare k1 k2 with
                | n when n < 0 -> false (* k1 missing in m2. *)
                | 0 -> V.leq v1 v2 && go s1' s2'
                | _ -> advance s2')
          in
          advance s2
    in
    go (M.to_seq m1) (M.to_seq m2)

  let leq t1 t2 =
    t1.m == t2.m
    || t1.c <= t2.c
       &&
       if 8 * t1.c <= t2.c then leq_lookup t1.m t2.m
       else leq_walk t1.m t2.m

  let equal t1 t2 = t1.m == t2.m || (t1.w = t2.w && M.equal V.equal t1.m t2.m)
  let compare t1 t2 = M.compare V.compare t1.m t2.m

  let decompose t =
    M.fold
      (fun k v acc ->
        List.fold_left
          (fun acc d ->
            {
              m = M.singleton k d;
              c = 1;
              w = V.weight d;
              b = K.byte_size k + V.byte_size d;
            }
            :: acc)
          acc (V.decompose v))
      t.m []

  let fold_decompose f t acc =
    M.fold
      (fun k v acc ->
        V.fold_decompose
          (fun d acc ->
            f
              {
                m = M.singleton k d;
                c = 1;
                w = V.weight d;
                b = K.byte_size k + V.byte_size d;
              }
              acc)
          v acc)
      t.m acc

  (* Binds a key absent from [acc] to a non-⊥ value. *)
  let add_new k v acc =
    {
      m = M.add k v acc.m;
      c = acc.c + 1;
      w = acc.w + V.weight v;
      b = acc.b + K.byte_size k + V.byte_size v;
    }

  (* Δ is pointwise: keys only in [m1] survive whole, shared keys recurse
     into the value lattice, keys only in [m2] contribute nothing.  Like
     [leq], this walks only [m1] with lookups into [m2] — the common call
     is Δ(small received δ-group, large local state), where a
     simultaneous merge walk would traverse the whole state per
     message. *)
  let delta t1 t2 =
    M.fold
      (fun k v1 acc ->
        match M.find_opt k t2.m with
        | None -> add_new k v1 acc
        | Some v2 ->
            let d = V.delta v1 v2 in
            if V.is_bottom d then acc else add_new k d acc)
      t1.m bottom

  (* Only keys bound in both operands carry covered irreducibles, so the
     walk takes whichever operand the cached cardinals say is smaller and
     looks each key up in the other — the common call is
     redundancy(state, one-key δ), which costs one lookup. *)
  let redundancy t1 t2 =
    let covered k v1 v2 acc =
      let r = V.redundancy v1 v2 in
      if V.is_bottom r then acc else add_new k r acc
    in
    if t1.c <= t2.c then
      M.fold
        (fun k v1 acc ->
          match M.find_opt k t2.m with
          | None -> acc
          | Some v2 -> covered k v1 v2 acc)
        t1.m bottom
    else
      M.fold
        (fun k v2 acc ->
          match M.find_opt k t1.m with
          | None -> acc
          | Some v1 -> covered k v1 v2 acc)
        t2.m bottom

  (* Note: a Δ-based join ([a ⊔ b = b ⊔ Δ(a,b)], extracting the smaller
     operand's strictly-new part before a small-vs-big union) measured
     {e slower} than the plain union on the anti-entropy shapes it
     targets — the stdlib union is already subtree-sharing and
     split-based, so the extra lookup walk never pays for itself. *)
  let join = join_union

  let pp ppf t =
    let pp_binding ppf (k, v) =
      Format.fprintf ppf "@[<1>%a ↦@ %a@]" K.pp k V.pp v
    in
    Format.fprintf ppf "@[<1>{%a}@]"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@ ")
         pp_binding)
      (M.bindings t.m)

  let empty = bottom

  let singleton k v =
    if V.is_bottom v then bottom
    else
      {
        m = M.singleton k v;
        c = 1;
        w = V.weight v;
        b = K.byte_size k + V.byte_size v;
      }

  let set k v t =
    let old = M.find_opt k t.m in
    let w, b =
      match old with
      | None -> (t.w, t.b)
      | Some o -> (t.w - V.weight o, t.b - K.byte_size k - V.byte_size o)
    in
    if V.is_bottom v then
      match old with
      | None -> t
      | Some _ -> { m = M.remove k t.m; c = t.c - 1; w; b }
    else
      {
        m = M.add k v t.m;
        c = (if old = None then t.c + 1 else t.c);
        w = w + V.weight v;
        b = b + K.byte_size k + V.byte_size v;
      }

  let join_entry k v t = join t (singleton k v)
  let cardinal t = t.c
  let bindings t = M.bindings t.m
  let keys t = List.map fst (M.bindings t.m)
  let fold f t acc = M.fold f t.m acc
  let of_list l = List.fold_left (fun t (k, v) -> set k v t) bottom l

  (* Encoded as the sorted binding list.  Decoding goes through
     [of_list]/[set], which rebuilds the cached sizes and drops any
     ⊥-bound key, so the no-⊥-binding invariant holds even for corrupt
     input that encodes a bottom value. *)
  let codec =
    Crdt_wire.Codec.conv bindings of_list
      (Crdt_wire.Codec.list (Crdt_wire.Codec.pair K.codec V.codec))
end
