(** Finite-function composition [U ↪→ A]: maps from an unordered key set
    to a lattice, absent keys standing for [⊥].

    This is the lattice underlying GCounter ([I ↪→ ℕ]), GMap and the
    PNCounter of Appendix C.  Join is pointwise; the order is pointwise;
    decomposition (Appendix C) is
    [⇓f = { {k ↦ v} | k ∈ dom f ∧ v ∈ ⇓f(k) }].

    Invariant: no key is ever bound to [⊥] (such a binding is
    indistinguishable from absence and would break [equal]/[weight]).

    {b Shared structure.}  The bindings live in an {!Avl.Map} keyed by
    [K.compare], so every codec, weight and byte stays what it was on
    Stdlib's [Map].  [set] and [join] rebuild only the paths to the keys
    they change and return their first operand physically when nothing
    changes ([join x d == x] whenever [d ⊑ x]), so a state and a recent
    version of it — the last persisted image, the state before a
    delivery — share every untouched subtree.  [delta], [leq], [equal]
    and [redundancy] walk both trees together and skip shared subtrees,
    so Δ(x′, x), [x ⊑ x′] and [x′ = x] cost the change times the height,
    not the state.  When one operand has a single binding or at most an
    eighth of the other's (a δ-group against a state), [delta], [leq] and
    [redundancy] instead walk the small one with a lookup into the big
    one, O(small · log big).

    {b Cached sizes.}  The representation carries the map's cardinal,
    total weight and byte size.  [join] starts from the sum of both
    operands' sizes and subtracts the overlap on collided keys (which the
    union callback visits anyway); [set] adjusts by the replaced binding;
    Δ and redundancy results are measured by one fold over the result,
    which is as small as the change.  [weight] and [byte_size] are
    therefore O(1) — they sit on the simulator's per-message accounting
    and per-round memory-snapshot hot paths. *)

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
  module M = Avl.Map (K)

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

  (* A tree built from [t]'s: [t] itself when it kept all of it, else
     measured by one fold. *)
  let of_tree t m =
    if m == t.m then t
    else if M.is_empty m then bottom
    else
      let c = ref 0 and w = ref 0 and b = ref 0 in
      M.iter
        (fun k v ->
          incr c;
          w := !w + V.weight v;
          b := !b + K.byte_size k + V.byte_size v)
        m;
      { m; c = !c; w = !w; b = !b }

  let join t1 t2 =
    if t1.m == t2.m then t1
    else
      (* Start from the disjoint sum and subtract the overlap: the union
         callback runs exactly on the collided keys, where the key and
         the two value sizes were each counted twice. *)
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
            v)
          t1.m t2.m
      in
      if m == t1.m then t1
      else if m == t2.m then t2
      else { m; c = !c; w = !w; b = !b }

  let find k t = match M.find_opt k t.m with Some v -> v | None -> V.bottom

  (* Whether [t1] is walked with a lookup per binding into [t2] (the
     δ-group-vs-state shape) instead of together with [t2]. *)
  let small t1 t2 = t1.c <= 1 || 8 * t1.c <= t2.c

  (* A key bound only in [t1] violates the order (its value is non-⊥),
     so [c1 > c2] refutes it at once. *)
  let leq t1 t2 =
    t1.m == t2.m
    || t1.c <= t2.c
       &&
       if small t1 t2 then
         M.for_all
           (fun k v1 ->
             match M.find_opt k t2.m with
             | Some v2 -> V.leq v1 v2
             | None -> false)
           t1.m
       else M.sub V.leq t1.m t2.m

  (* Same cardinal and every binding of [t1] equal in [t2]. *)
  let equal t1 t2 =
    t1.m == t2.m
    || (t1.c = t2.c && t1.w = t2.w && t1.b = t2.b && M.sub V.equal t1.m t2.m)

  let compare t1 t2 = M.compare V.compare t1.m t2.m

  let singleton_of k d =
    {
      m = M.singleton k d;
      c = 1;
      w = V.weight d;
      b = K.byte_size k + V.byte_size d;
    }

  let decompose t =
    M.fold
      (fun k v acc ->
        List.fold_left
          (fun acc d -> singleton_of k d :: acc)
          acc (V.decompose v))
      t.m []

  let fold_decompose f t acc =
    M.fold
      (fun k v acc ->
        V.fold_decompose (fun d acc -> f (singleton_of k d) acc) v acc)
      t.m acc

  let unless_bottom d = if V.is_bottom d then None else Some d
  let delta_value v1 v2 = unless_bottom (V.delta v1 v2)
  let covered v1 v2 = unless_bottom (V.redundancy v1 v2)

  (* Δ is pointwise: keys only in [t1] survive whole, shared keys recurse
     into the value lattice, keys only in [t2] contribute nothing. *)
  let delta t1 t2 =
    if is_bottom t1 || is_bottom t2 then t1
    else if small t1 t2 then
      of_tree t1
        (M.filter_map
           (fun k v1 ->
             match M.find_opt k t2.m with
             | None -> Some v1
             | Some v2 -> delta_value v1 v2)
           t1.m)
    else of_tree t1 (M.diff delta_value t1.m t2.m)

  (* Only keys bound in both operands carry covered irreducibles; a
     lopsided pair walks the smaller operand (redundancy(state, one-key
     δ) costs one lookup). *)
  let redundancy t1 t2 =
    let walk t1 t2 f =
      of_tree t1
        (M.filter_map
           (fun k v1 ->
             match M.find_opt k t2.m with None -> None | Some v2 -> f v1 v2)
           t1.m)
    in
    if is_bottom t1 || is_bottom t2 then bottom
    else if small t2 t1 then walk t2 t1 (fun v2 v1 -> covered v1 v2)
    else if small t1 t2 then walk t1 t2 covered
    else of_tree t1 (M.inter covered t1.m t2.m)

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
  let singleton k v = if V.is_bottom v then bottom else singleton_of k v

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
      let m = M.add k v t.m in
      if m == t.m then t
      else
        {
          m;
          c = (if old = None then t.c + 1 else t.c);
          w = w + V.weight v;
          b = b + K.byte_size k + V.byte_size v;
        }

  let join_entry k v t = join t (singleton k v)
  let cardinal t = t.c
  let bindings t = M.bindings t.m
  let keys t = M.keys t.m
  let fold f t acc = M.fold f t.m acc

  (* A canonical list (strictly increasing keys, no ⊥ value — what the
     codec writes) is built balanced in one pass; anything else is
     folded through [set]. *)
  let of_list l =
    let rec canonical = function
      | [] -> true
      | [ (_, v) ] -> not (V.is_bottom v)
      | (k1, v1) :: ((k2, _) :: _ as rest) ->
          (not (V.is_bottom v1)) && K.compare k1 k2 < 0 && canonical rest
    in
    if canonical l then of_tree bottom (M.of_sorted_list fst snd l)
    else List.fold_left (fun t (k, v) -> set k v t) bottom l

  (* Encoded as the sorted binding list.  Decoding goes through
     [of_list]/[set], which rebuilds the cached sizes and drops any
     ⊥-bound key, so the no-⊥-binding invariant holds even for corrupt
     input that encodes a bottom value. *)
  let codec =
    Crdt_wire.Codec.conv bindings of_list
      (Crdt_wire.Codec.list (Crdt_wire.Codec.pair K.codec V.codec))
end
