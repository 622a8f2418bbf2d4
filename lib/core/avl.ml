(** A height-balanced binary search tree map whose nodes the lattice
    compositions can see.  [Map_lattice] binds keys to lattice values;
    [Powerset] binds its elements to [()].

    The balancing scheme and the single-tree algorithms are the ones
    Stdlib's [Map] and [Set] use: children's heights differ by at most 2,
    [bal] restores that with one or two rotations, and [join], [split]
    and [concat] glue trees of any heights.  Lookups, inserts and unions
    therefore cost what Stdlib's do, and [compare] is the same
    lexicographic order on the ascending bindings.

    What Stdlib hides is the tree.  A persistent update rebuilds only
    the path to the key it touches, so a state and a recent version of it
    share every other subtree physically.  The two-tree walks here
    ([diff], [inter], [sub]) recurse on both trees together, return at
    once on physically equal subtrees, and [split] the second tree only
    where the two shapes differ, so comparing a state with a recent
    version costs the change times the height, not the state.  [add] and
    [union] return their first operand physically when the second adds
    nothing, which is what keeps those subtrees shared from one version
    to the next. *)

module type ORDERED = sig
  type t

  val compare : t -> t -> int
end

module Map (K : ORDERED) = struct
  type 'v t = Empty | Node of { l : 'v t; k : K.t; v : 'v; r : 'v t; h : int }

  let empty = Empty
  let is_empty = function Empty -> true | Node _ -> false
  let height = function Empty -> 0 | Node { h; _ } -> h

  let create l k v r =
    let hl = height l and hr = height r in
    Node { l; k; v; r; h = (if hl >= hr then hl + 1 else hr + 1) }

  let singleton k v = Node { l = Empty; k; v; r = Empty; h = 1 }

  (* A balanced tree binding [key x] to [value x] for each [x] of a list
     in strictly increasing key order, in linear time. *)
  let of_sorted_list key value l =
    let rec build n l =
      if n = 0 then (Empty, l)
      else
        let left, l = build (n / 2) l in
        match l with
        | [] -> assert false
        | x :: l ->
            let right, l = build (n - (n / 2) - 1) l in
            (create left (key x) (value x) right, l)
    in
    fst (build (List.length l) l)

  (* [create], rotating once or twice when the heights differ by 3. *)
  let bal l k v r =
    let hl = height l and hr = height r in
    if hl > hr + 2 then
      match l with
      | Node { l = ll; k = lk; v = lv; r = lr; _ } when height ll >= height lr
        ->
          create ll lk lv (create lr k v r)
      | Node
          {
            l = ll;
            k = lk;
            v = lv;
            r = Node { l = lrl; k = lrk; v = lrv; r = lrr; _ };
            _;
          } ->
          create (create ll lk lv lrl) lrk lrv (create lrr k v r)
      | _ -> assert false
    else if hr > hl + 2 then
      match r with
      | Node { l = rl; k = rk; v = rv; r = rr; _ } when height rr >= height rl
        ->
          create (create l k v rl) rk rv rr
      | Node
          {
            l = Node { l = rll; k = rlk; v = rlv; r = rlr; _ };
            k = rk;
            v = rv;
            r = rr;
            _;
          } ->
          create (create l k v rll) rlk rlv (create rlr rk rv rr)
      | _ -> assert false
    else Node { l; k; v; r; h = (if hl >= hr then hl + 1 else hr + 1) }

  let rec find_opt x = function
    | Empty -> None
    | Node { l; k; v; r; _ } ->
        let c = K.compare x k in
        if c = 0 then Some v else find_opt x (if c < 0 then l else r)

  let rec mem x = function
    | Empty -> false
    | Node { l; k; r; _ } ->
        let c = K.compare x k in
        c = 0 || mem x (if c < 0 then l else r)

  (* Binds [x] to [f x v0 d] when [m] binds it to [v0], else to [d]. *)
  let rec add_with f x d = function
    | Empty -> singleton x d
    | Node { l; k; v; r; h } as m ->
        let c = K.compare x k in
        if c = 0 then
          let v' = f k v d in
          if v' == v then m else Node { l; k; v = v'; r; h }
        else if c < 0 then
          let l' = add_with f x d l in
          if l' == l then m else bal l' k v r
        else
          let r' = add_with f x d r in
          if r' == r then m else bal l k v r'

  let add x d m = add_with (fun _ _ d -> d) x d m

  let rec add_min k v = function
    | Empty -> singleton k v
    | Node { l; k = k'; v = v'; r; _ } -> bal (add_min k v l) k' v' r

  let rec add_max k v = function
    | Empty -> singleton k v
    | Node { l; k = k'; v = v'; r; _ } -> bal l k' v' (add_max k v r)

  (* Every key of [l] is below [k] and of [r] above; any heights. *)
  let rec join l k v r =
    match (l, r) with
    | Empty, _ -> add_min k v r
    | _, Empty -> add_max k v l
    | ( Node { l = ll; k = lk; v = lv; r = lr; h = lh },
        Node { l = rl; k = rk; v = rv; r = rr; h = rh } ) ->
        if lh > rh + 2 then bal ll lk lv (join lr k v r)
        else if rh > lh + 2 then bal (join l k v rl) rk rv rr
        else create l k v r

  let rec min_binding = function
    | Empty -> raise Not_found
    | Node { l = Empty; k; v; _ } -> (k, v)
    | Node { l; _ } -> min_binding l

  let rec remove_min = function
    | Empty -> Empty
    | Node { l = Empty; r; _ } -> r
    | Node { l; k; v; r; _ } -> bal (remove_min l) k v r

  (* Every key of [t1] is below every key of [t2]. *)
  let concat t1 t2 =
    match (t1, t2) with
    | Empty, t | t, Empty -> t
    | _ ->
        let k, v = min_binding t2 in
        join t1 k v (remove_min t2)

  let rec remove x = function
    | Empty -> Empty
    | Node { l; k; v; r; _ } as m ->
        let c = K.compare x k in
        if c = 0 then concat l r
        else if c < 0 then
          let l' = remove x l in
          if l' == l then m else bal l' k v r
        else
          let r' = remove x r in
          if r' == r then m else bal l k v r'

  (* [split x m]: the bindings of [m] below [x], [x]'s value if bound,
     and those above.  [split_at x c l k v r] is [split x (l k v r)] given
     [c = K.compare x k], so a walk that already compared the roots does
     not compare them again. *)
  let rec split x = function
    | Empty -> (Empty, None, Empty)
    | Node { l; k; v; r; _ } -> split_at x (K.compare x k) l k v r

  and split_at x c l k v r =
    if c = 0 then (l, Some v, r)
    else if c < 0 then
      let ll, found, rl = split x l in
      (ll, found, join rl k v r)
    else
      let lr, found, rr = split x r in
      (join l k v lr, found, rr)

  (* Stdlib's split-based union; [f k v1 v2] joins a key both operands
     bind, [v1] from [m1]. *)
  let rec union f m1 m2 =
    match (m1, m2) with
    | Empty, m | m, Empty -> m
    | ( Node { l = l1; k = k1; v = v1; r = r1; h = h1 },
        Node { l = l2; k = k2; v = v2; r = r2; h = h2 } ) ->
        if h1 >= h2 then
          if h2 = 1 then add_with f k2 v2 m1
          else
            let l2, found, r2 = split k1 m2 in
            let l = union f l1 l2 and r = union f r1 r2 in
            let v = match found with None -> v1 | Some v2 -> f k1 v1 v2 in
            if l == l1 && r == r1 && v == v1 then m1 else join l k1 v r
        else if h1 = 1 then add_with (fun k v2 v1 -> f k v1 v2) k1 v1 m2
        else
          let l1, found, r1 = split k2 m1 in
          let l = union f l1 l2 and r = union f r1 r2 in
          match found with
          | None -> join l k2 v2 r
          | Some v1 ->
              let v = f k2 v1 v2 in
              if l == l1 && r == r1 && v == v1 then m1 else join l k2 v r

  (* [m] = [l0 k v0 r0] with children [l], [r] and value [v] ([None]
     drops [k]). *)
  let rebuild m l0 k v0 r0 l v r =
    match v with
    | None -> concat l r
    | Some v -> if l == l0 && r == r0 && v == v0 then m else join l k v r

  (* The two-tree walks: [m1]'s root against [m2]'s children when the
     roots agree, against a [split] of [m2] when they do not.  [diff]
     keeps [m1]'s bindings [m2] lacks and [f v1 v2] where both bind the
     key, so it needs [f v v = None]; [inter] keeps [f v1 v2] where both
     bind it and needs [f v v = Some v]; [sub] needs [f v v = true]. *)
  let rec diff f m1 m2 =
    if m1 == m2 then Empty
    else
      match (m1, m2) with
      | Empty, _ -> Empty
      | _, Empty -> m1
      | ( Node { l = l1; k = k1; v = v1; r = r1; _ },
          Node { l = l2; k = k2; v = v2; r = r2; _ } ) ->
          let c = K.compare k1 k2 in
          if c = 0 then
            rebuild m1 l1 k1 v1 r1 (diff f l1 l2) (f v1 v2) (diff f r1 r2)
          else
            let l2, found, r2 = split_at k1 c l2 k2 v2 r2 in
            let v = match found with None -> Some v1 | Some v2 -> f v1 v2 in
            rebuild m1 l1 k1 v1 r1 (diff f l1 l2) v (diff f r1 r2)

  let rec inter f m1 m2 =
    if m1 == m2 then m1
    else
      match (m1, m2) with
      | Empty, _ | _, Empty -> Empty
      | ( Node { l = l1; k = k1; v = v1; r = r1; _ },
          Node { l = l2; k = k2; v = v2; r = r2; _ } ) ->
          let c = K.compare k1 k2 in
          if c = 0 then
            rebuild m1 l1 k1 v1 r1 (inter f l1 l2) (f v1 v2) (inter f r1 r2)
          else
            let l2, found, r2 = split_at k1 c l2 k2 v2 r2 in
            let v = match found with None -> None | Some v2 -> f v1 v2 in
            rebuild m1 l1 k1 v1 r1 (inter f l1 l2) v (inter f r1 r2)

  let rec sub f m1 m2 =
    m1 == m2
    ||
    match (m1, m2) with
    | Empty, _ -> true
    | _, Empty -> false
    | ( Node { l = l1; k = k1; v = v1; r = r1; _ },
        Node { l = l2; k = k2; v = v2; r = r2; _ } ) -> (
        let c = K.compare k1 k2 in
        if c = 0 then f v1 v2 && sub f l1 l2 && sub f r1 r2
        else
          match split_at k1 c l2 k2 v2 r2 with
          | _, None, _ -> false
          | l2, Some v2, r2 -> f v1 v2 && sub f l1 l2 && sub f r1 r2)

  let rec filter_map f = function
    | Empty -> Empty
    | Node { l; k; v; r; _ } as m ->
        let l' = filter_map f l in
        let v' = f k v in
        rebuild m l k v r l' v' (filter_map f r)

  let rec for_all p = function
    | Empty -> true
    | Node { l; k; v; r; _ } -> p k v && for_all p l && for_all p r

  let rec iter f = function
    | Empty -> ()
    | Node { l; k; v; r; _ } ->
        iter f l;
        f k v;
        iter f r

  let rec fold f m acc =
    match m with
    | Empty -> acc
    | Node { l; k; v; r; _ } -> fold f r (f k v (fold f l acc))

  let bindings m =
    let rec go acc = function
      | Empty -> acc
      | Node { l; k; v; r; _ } -> go ((k, v) :: go acc r) l
    in
    go [] m

  let keys m =
    let rec go acc = function
      | Empty -> acc
      | Node { l; k; r; _ } -> go (k :: go acc r) l
    in
    go [] m

  type 'v enum = End | More of K.t * 'v * 'v t * 'v enum

  let rec cons_enum m e =
    match m with
    | Empty -> e
    | Node { l; k; v; r; _ } -> cons_enum l (More (k, v, r, e))

  let compare cmp m1 m2 =
    let rec go e1 e2 =
      match (e1, e2) with
      | End, End -> 0
      | End, _ -> -1
      | _, End -> 1
      | More (k1, v1, r1, e1), More (k2, v2, r2, e2) ->
          let c = K.compare k1 k2 in
          if c <> 0 then c
          else
            let c = cmp v1 v2 in
            if c <> 0 then c else go (cons_enum r1 e1) (cons_enum r2 e2)
    in
    go (cons_enum m1 End) (cons_enum m2 End)
end
