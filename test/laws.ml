(* Generic lattice / decomposition / optimal-delta laws, checked by
   QCheck over every lattice instance in the library (test_laws.ml).

   The properties encode, verbatim, the definitions of Sections II-III:
   join-semilattice axioms, Definition 1 (join-irreducibility),
   Definitions 2-3 (irredundant join decomposition), and the
   correctness/minimality contract of Δ(a,b). *)

open Crdt_core
module Hash = Crdt_digest.Hash

module Make
    (L : Lattice_intf.DECOMPOSABLE) (G : sig
      val name : string
      val gen : L.t QCheck.Gen.t
    end) =
struct
  module D = Delta.Make (L)

  let arb = QCheck.make ~print:(Format.asprintf "%a" L.pp) G.gen
  let pair = QCheck.pair arb arb
  let triple = QCheck.triple arb arb arb

  let test ?(count = 200) name arb prop =
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count ~name:(G.name ^ ": " ^ name) arb prop)

  let join_commutative =
    test "join commutative" pair (fun (a, b) ->
        L.equal (L.join a b) (L.join b a))

  let join_associative =
    test "join associative" triple (fun (a, b, c) ->
        L.equal (L.join a (L.join b c)) (L.join (L.join a b) c))

  let join_idempotent =
    test "join idempotent" arb (fun a -> L.equal (L.join a a) a)

  let bottom_identity =
    test "bottom is neutral" arb (fun a ->
        L.equal (L.join a L.bottom) a && L.equal (L.join L.bottom a) a)

  let is_bottom_consistent =
    test "is_bottom agrees with equal bottom" arb (fun a ->
        L.is_bottom a = L.equal a L.bottom)

  let leq_reflexive = test "⊑ reflexive" arb (fun a -> L.leq a a)

  let leq_antisymmetric =
    test "⊑ antisymmetric" pair (fun (a, b) ->
        if L.leq a b && L.leq b a then L.equal a b else true)

  let leq_transitive =
    test "⊑ transitive (via joins)" triple (fun (a, b, c) ->
        (* a ⊑ a⊔b ⊑ a⊔b⊔c holds by construction; check it. *)
        let ab = L.join a b in
        let abc = L.join ab c in
        L.leq a ab && L.leq ab abc && L.leq a abc)

  let leq_join_consistent =
    test "a ⊑ b ⇔ a⊔b = b" pair (fun (a, b) ->
        L.leq a b = L.equal (L.join a b) b)

  let compare_equal_consistent =
    test "compare = 0 ⇔ equal" pair (fun (a, b) ->
        (L.compare a b = 0) = L.equal a b)

  let bottom_leq_all = test "⊥ ⊑ x" arb (fun a -> L.leq L.bottom a)

  let weight_bottom =
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:1
         ~name:(G.name ^ ": weight ⊥ = 0 and ⇓⊥ = ∅")
         QCheck.unit
         (fun () -> L.weight L.bottom = 0 && L.decompose L.bottom = []))

  let weight_zero_iff_bottom =
    test "weight x = 0 ⇔ x = ⊥" arb (fun a ->
        (L.weight a = 0) = L.is_bottom a)

  let join_weight_subadditive =
    test "weight (a⊔b) ≤ weight a + weight b" pair (fun (a, b) ->
        L.weight (L.join a b) <= L.weight a + L.weight b)

  (* Decomposition laws (Definitions 1-3, Proposition 2). *)

  let decompose_rejoins =
    test "⊔⇓x = x" arb (fun a -> D.is_decomposition (L.decompose a) a)

  let decompose_below =
    test "every y ∈ ⇓x satisfies y ⊑ x" arb (fun a ->
        List.for_all (fun y -> L.leq y a) (L.decompose a))

  let decompose_irredundant =
    test ~count:100 "⇓x is irredundant" arb (fun a ->
        D.is_irredundant (L.decompose a))

  let decompose_irreducible =
    test ~count:100 "elements of ⇓x are join-irreducible" arb (fun a ->
        List.for_all D.is_irreducible (L.decompose a))

  let decompose_no_bottom =
    test "⊥ ∉ ⇓x" arb (fun a ->
        List.for_all (fun y -> not (L.is_bottom y)) (L.decompose a))

  let decompose_weight =
    test "weight x = |⇓x|" arb (fun a ->
        L.weight a = List.length (L.decompose a))

  (* Optimal-delta laws (Section III-B). *)

  let delta_correct =
    test "Δ(a,b) ⊔ b = a ⊔ b" pair (fun (a, b) ->
        L.equal (L.join (D.delta a b) b) (L.join a b))

  let delta_below =
    test "Δ(a,b) ⊑ a" pair (fun (a, b) -> L.leq (D.delta a b) a)

  let delta_bottom_when_contained =
    test "a ⊑ b ⇒ Δ(a,b) = ⊥" pair (fun (a, b) ->
        let b = L.join a b in
        L.is_bottom (D.delta a b))

  let delta_minimal =
    test "minimality: no y ∈ ⇓Δ(a,b) is below b" pair (fun (a, b) ->
        List.for_all (fun y -> not (L.leq y b)) (L.decompose (D.delta a b)))

  let delta_self = test "Δ(a,a) = ⊥" arb (fun a -> L.is_bottom (D.delta a a))

  let redundancy_complement =
    test "Δ(a,b) ⊔ redundancy(a,b) = a" pair (fun (a, b) ->
        L.equal (L.join (D.delta a b) (D.redundancy a b)) a)

  let delta_idempotent_resend =
    test "re-merging a delta changes nothing" pair (fun (a, b) ->
        let d = D.delta a b in
        let merged = L.join b d in
        L.equal (L.join merged d) merged)

  (* Structural delta / streaming decomposition: the direct
     implementations must agree with the generic decompose-based oracle
     and independently satisfy the Δ contract. *)

  let structural_delta_matches_oracle =
    test "structural Δ = decompose-based Δ (oracle)" pair (fun (a, b) ->
        L.equal (L.delta a b) (D.delta a b))

  let structural_delta_correct =
    test "structural Δ(a,b) ⊔ b = a ⊔ b" pair (fun (a, b) ->
        L.equal (L.join (L.delta a b) b) (L.join a b))

  let structural_delta_minimal =
    test "structural Δ minimality: no y ∈ ⇓Δ(a,b) is below b" pair
      (fun (a, b) ->
        List.for_all
          (fun y -> not (L.leq y b))
          (L.decompose (L.delta a b)))

  let structural_redundancy_matches_oracle =
    test "structural redundancy = decompose-based redundancy (oracle)" pair
      (fun (a, b) -> L.equal (L.redundancy a b) (D.redundancy a b))

  (* The digest upkeep conflict-sync relies on: an XOR of irreducible
     hashes moves, across a join, by the hashes of the optimal delta and
     of the irreducibles that delta covers. *)
  let digest x =
    L.fold_decompose
      (fun y acc -> Hash.combine acc (Hash.of_value L.codec y))
      x 0

  let digest_follows_join =
    test "digest(a⊔b) = digest a ⊕ digest e ⊕ digest redundancy(a,e), e = Δ(b,a)"
      pair (fun (a, b) ->
        let e = L.delta b a in
        digest (L.join a b)
        = digest a lxor digest e lxor digest (L.redundancy a e))

  let fold_decompose_agrees =
    test "fold_decompose enumerates exactly ⇓x" arb (fun a ->
        let streamed =
          List.sort L.compare (L.fold_decompose List.cons a [])
        in
        let listed = List.sort L.compare (L.decompose a) in
        List.length streamed = List.length listed
        && List.for_all2 L.equal streamed listed)

  let suite =
    [
      join_commutative;
      join_associative;
      join_idempotent;
      bottom_identity;
      is_bottom_consistent;
      leq_reflexive;
      leq_antisymmetric;
      leq_transitive;
      leq_join_consistent;
      compare_equal_consistent;
      bottom_leq_all;
      weight_bottom;
      weight_zero_iff_bottom;
      join_weight_subadditive;
      decompose_rejoins;
      decompose_below;
      decompose_irredundant;
      decompose_irreducible;
      decompose_no_bottom;
      decompose_weight;
      delta_correct;
      delta_below;
      delta_bottom_when_contained;
      delta_minimal;
      delta_self;
      redundancy_complement;
      delta_idempotent_resend;
      structural_delta_matches_oracle;
      structural_delta_correct;
      structural_delta_minimal;
      structural_redundancy_matches_oracle;
      digest_follows_join;
      fold_decompose_agrees;
    ]
end

(* The optimal δ-mutator contract of Section III-B: mᵟ(x) = Δ(m(x),x),
   which is stronger than m(x) = x ⊔ mᵟ(x) — no irreducible of a local
   delta may already be ⊑ x.  Conflict-sync folds local deltas straight
   into its digest and is exact only for optimal ones. *)
module Mutator
    (C : Lattice_intf.CRDT) (G : sig
      val name : string
      val gen : C.t QCheck.Gen.t
      val op : C.op QCheck.Gen.t
    end) =
struct
  module D = Delta.Make (C)

  let replica = QCheck.Gen.map Replica_id.of_int (QCheck.Gen.int_bound 4)

  let law =
    QCheck.Test.make ~count:300
      ~name:(G.name ^ ": δ-mutator is optimal, mᵟ(x) = Δ(m(x),x)")
      (QCheck.make
         ~print:(fun (x, op, _) ->
           Format.asprintf "%a on %a" C.pp_op op C.pp x)
         (QCheck.Gen.triple G.gen G.op replica))
      (fun (x, op, i) ->
        C.equal (C.delta_mutate op i x) (D.delta (C.mutate op i x) x))

  let test = QCheck_alcotest.to_alcotest law
end
