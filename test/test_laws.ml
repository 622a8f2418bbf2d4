(* Instantiates the generic lattice/decomposition/delta laws (laws.ml)
   for every lattice and CRDT in the library, including deep composites,
   exercising the composition rules of Appendix C, and the optimal
   δ-mutator law for every CRDT.  A CRDT's generator module also names
   an operation generator, so one module feeds both functors. *)

open Crdt_core
module Gen = QCheck.Gen

(* -- Generators -------------------------------------------------------- *)

let replica = Gen.map Replica_id.of_int (Gen.int_bound 4)
let small_int = Gen.int_bound 20
let small_string = Gen.map (fun n -> String.make n 'a') (Gen.int_bound 5)

module Max_int_laws =
  Laws.Make
    (Chain.Max_int)
    (struct
      let name = "Max_int"
      let gen = small_int
    end)

module Max_string_laws =
  Laws.Make
    (Chain.Max_string)
    (struct
      let name = "Max_string"
      let gen = small_string
    end)

module Bool_laws =
  Laws.Make
    (Chain.Bool_or)
    (struct
      let name = "Bool_or"
      let gen = Gen.bool
    end)

module Gset_g = struct
  let name = "GSet<int>"
  let gen = Gen.map Gset.Of_int.of_list (Gen.small_list (Gen.int_bound 30))
  let op = Gen.int_bound 30
end

module Gset_laws = Laws.Make (Gset.Of_int) (Gset_g)

let gcounter_gen =
  Gen.map Gcounter.of_list
    (Gen.small_list (Gen.pair replica (Gen.int_range 1 10)))

module Gcounter_g = struct
  let name = "GCounter"
  let gen = gcounter_gen
  let op = Gen.map (fun n -> Gcounter.Inc n) (Gen.int_range 1 5)
end

module Gcounter_laws = Laws.Make (Gcounter) (Gcounter_g)

module Pncounter_g = struct
  let name = "PNCounter"

  let gen =
    Gen.map Pncounter.of_list
      (Gen.small_list
         (Gen.pair replica (Gen.pair (Gen.int_bound 9) (Gen.int_bound 9))))

  let op =
    Gen.oneof
      [
        Gen.map (fun n -> Pncounter.Inc n) (Gen.int_range 1 5);
        Gen.map (fun n -> Pncounter.Dec n) (Gen.int_range 1 5);
      ]
end

module Pncounter_laws = Laws.Make (Pncounter) (Pncounter_g)

module Pair = Product.Make (Chain.Max_int) (Gset.Of_int)

let gset_gen = Gen.map Gset.Of_int.of_list (Gen.small_list (Gen.int_bound 15))

module Product_laws =
  Laws.Make
    (Pair)
    (struct
      let name = "Max_int × GSet"
      let gen = Gen.pair small_int gset_gen
    end)

module Lex = Lexico.Make (Chain.Max_int) (Gset.Of_int)

module Lexico_laws =
  Laws.Make
    (Lex)
    (struct
      let name = "Max_int ⋉ GSet"
      let gen = Gen.pair (Gen.int_bound 3) gset_gen
    end)

module Sum = Linear_sum.Make (Gset.Of_int) (Gset.Of_int)

module Linear_sum_laws =
  Laws.Make
    (Sum)
    (struct
      let name = "GSet ⊕ GSet"

      let gen =
        Gen.oneof
          [
            Gen.map (fun s -> Sum.Left s) gset_gen;
            Gen.map (fun s -> Sum.Right s) gset_gen;
          ]
    end)

module Gmap_g = struct
  let name = "GMap<int,Version>"

  let gen =
    Gen.map Gmap.Versioned.of_list
      (Gen.small_list (Gen.pair (Gen.int_bound 5) (Gen.int_bound 5)))

  (* Keys overlap the generated states', so bumps and raises both hit
     bound keys (an overwriting delta) and fresh ones. *)
  let op =
    Gen.map2
      (fun k v -> Gmap.Versioned.Apply (k, v))
      (Gen.int_bound 6)
      (Gen.oneof
         [
           Gen.return Version.Bump;
           Gen.map (fun n -> Version.Raise_to n) (Gen.int_bound 7);
         ])
end

module Gmap_laws = Laws.Make (Gmap.Versioned) (Gmap_g)

module Tps = Two_pset.Make (Powerset.Int_elt)

module Tps_g = struct
  let name = "2PSet<int>"

  let op =
    Gen.oneof
      [
        Gen.map (fun e -> Tps.Add e) (Gen.int_bound 10);
        Gen.map (fun e -> Tps.Remove e) (Gen.int_bound 10);
      ]

  let gen =
    Gen.map
      (fun ops ->
        List.fold_left
          (fun s op -> Tps.mutate op (Replica_id.of_int 0) s)
          Tps.bottom ops)
      (Gen.small_list op)
end

module Two_pset_laws = Laws.Make (Tps) (Tps_g)

module Lww_g = struct
  let name = "LWW register"
  let gen = Gen.pair (Gen.int_bound 6) small_string
  let op = Gen.map (fun s -> Lww_register.Write s) small_string
end

module Lww_laws = Laws.Make (Lww_register) (Lww_g)

module Flag_g = struct
  let name = "Epoch flag"
  let gen = Gen.pair (Gen.int_bound 4) Gen.bool
  let op = Gen.oneofl [ Epoch_flag.Enable; Epoch_flag.Disable ]
end

module Flag_laws = Laws.Make (Epoch_flag) (Flag_g)

let mv_gen =
  let write = Gen.pair replica small_string in
  Gen.map
    (fun writes ->
      (* Interleave sequential writes with joins of divergent replicas to
         reach states holding concurrent values. *)
      List.fold_left
        (fun (acc, reg) (i, s) ->
          let reg' = Mv_register.mutate (Mv_register.Write s) i reg in
          (Mv_register.join acc reg', reg'))
        (Mv_register.bottom, Mv_register.bottom)
        writes
      |> fst)
    (Gen.small_list write)

module Mv_g = struct
  let name = "MV register"
  let gen = mv_gen
  let op = Gen.map (fun s -> Mv_register.Write s) small_string
end

module Mv_laws = Laws.Make (Mv_register) (Mv_g)

(* Antichains over the divisibility order on positive integers: a
   genuinely partial order unrelated to any CRDT, stressing M(P). *)
module Divisibility = struct
  type t = int

  let leq a b = b mod a = 0
  let compare = Int.compare
  let weight _ = 1
  let byte_size _ = 8
  let codec = Crdt_wire.Codec.int
  let pp ppf = Format.fprintf ppf "%d"
end

module Div_chain = Antichain.Make (Divisibility)

module Antichain_laws =
  Laws.Make
    (Div_chain)
    (struct
      let name = "M(divisibility)"

      let gen =
        Gen.map Div_chain.of_list (Gen.small_list (Gen.int_range 1 60))
    end)

(* Deep composite: map of user ids to (counter × lexicographic
   register), the shape of real application state. *)
module Deep_value = Product.Make (Gcounter) (Lex)
module Deep = Map_lattice.Make (Gmap.Int_key) (Deep_value)

module Deep_laws =
  Laws.Make
    (Deep)
    (struct
      let name = "Map<int, GCounter × (ℕ ⋉ GSet)>"

      let gen =
        Gen.map Deep.of_list
          (Gen.small_list
             (Gen.pair (Gen.int_bound 3)
                (Gen.pair gcounter_gen (Gen.pair (Gen.int_bound 3) gset_gen))))
    end)

module Aw = Aw_set.Of_string

module Aw_g = struct
  let name = "AW OR-Set"

  let op =
    Gen.oneof
      [
        Gen.map (fun e -> Aw.Add (String.make 1 e)) (Gen.char_range 'a' 'd');
        Gen.map (fun e -> Aw.Remove (String.make 1 e)) (Gen.char_range 'a' 'd');
      ]

  (* Mix sequential mutation with joins of divergent replicas so
     concurrent add/remove patterns appear in generated states. *)
  let gen =
    Gen.map
      (fun ops ->
        List.fold_left
          (fun (acc, st) (i, op) ->
            let st' = Aw.mutate op i st in
            (Aw.join acc st', st'))
          (Aw.bottom, Aw.bottom) ops
        |> fst)
      (Gen.small_list (Gen.pair replica op))
end

module Aw_laws = Laws.Make (Aw) (Aw_g)

module Resettable_g = struct
  let name = "Resettable counter"

  let op =
    Gen.oneof
      [
        Gen.map (fun n -> Resettable_counter.Inc (n + 1)) (Gen.int_bound 5);
        Gen.return Resettable_counter.Reset;
      ]

  let gen =
    Gen.map
      (fun ops ->
        List.fold_left
          (fun x (i, op) -> Resettable_counter.mutate op i x)
          Resettable_counter.bottom ops)
      (Gen.small_list (Gen.pair replica op))
end

module Resettable_laws = Laws.Make (Resettable_counter) (Resettable_g)

module Bounded_g = struct
  let name = "Bounded counter"

  let op =
    Gen.oneof
      [
        Gen.map (fun n -> Bounded_counter.Inc (n + 1)) (Gen.int_bound 5);
        Gen.map (fun n -> Bounded_counter.Dec (n + 1)) (Gen.int_bound 5);
        Gen.map
          (fun (n, t) ->
            Bounded_counter.Transfer
              { amount = n + 1; target = Replica_id.of_int t })
          (Gen.pair (Gen.int_bound 3) (Gen.int_bound 4));
      ]

  let gen =
    Gen.map
      (fun ops ->
        List.fold_left
          (fun x (i, op) -> Bounded_counter.mutate op i x)
          Bounded_counter.bottom ops)
      (Gen.small_list (Gen.pair replica op))
end

module Bounded_laws = Laws.Make (Bounded_counter) (Bounded_g)

module User_g = struct
  let name = "Retwis user state"

  let op =
    Gen.oneof
      [
        Gen.map (fun u -> Crdt_retwis.User_state.Follow u) (Gen.int_bound 9);
        Gen.map
          (fun n ->
            Crdt_retwis.User_state.Post
              { tweet_id = Printf.sprintf "t%d" n; content = "c" })
          (Gen.int_bound 9);
        Gen.map
          (fun ts ->
            Crdt_retwis.User_state.Timeline_add
              { timestamp = ts; tweet_id = "t" })
          (Gen.int_bound 9);
      ]

  let gen =
    Gen.map
      (fun ops ->
        List.fold_left
          (fun st (i, op) -> Crdt_retwis.User_state.mutate op i st)
          Crdt_retwis.User_state.bottom ops)
      (Gen.small_list (Gen.pair replica op))
end

module User_laws = Laws.Make (Crdt_retwis.User_state) (User_g)

(* -- Optimal δ-mutators ------------------------------------------------ *)

let mutator_laws =
  [
    (let module M = Laws.Mutator (Gset.Of_int) (Gset_g) in
    M.test);
    (let module M = Laws.Mutator (Gcounter) (Gcounter_g) in
    M.test);
    (let module M = Laws.Mutator (Pncounter) (Pncounter_g) in
    M.test);
    (let module M = Laws.Mutator (Gmap.Versioned) (Gmap_g) in
    M.test);
    (let module M = Laws.Mutator (Tps) (Tps_g) in
    M.test);
    (let module M = Laws.Mutator (Lww_register) (Lww_g) in
    M.test);
    (let module M = Laws.Mutator (Epoch_flag) (Flag_g) in
    M.test);
    (let module M = Laws.Mutator (Mv_register) (Mv_g) in
    M.test);
    (let module M = Laws.Mutator (Aw) (Aw_g) in
    M.test);
    (let module M = Laws.Mutator (Resettable_counter) (Resettable_g) in
    M.test);
    (let module M = Laws.Mutator (Bounded_counter) (Bounded_g) in
    M.test);
    (let module M = Laws.Mutator (Crdt_retwis.User_state) (User_g) in
    M.test);
  ]

(* The naive GSet re-ships present elements on purpose (the Section
   III-B ablation), so the law must catch it. *)
let naive_mutator_fails =
  Alcotest.test_case "GSet<int> naive: δ-mutator is not optimal" `Quick
    (fun () ->
      let module M = Laws.Mutator (Gset.Naive_of_int) (Gset_g) in
      match QCheck.Test.check_exn ~rand:(Random.State.make [| 1 |]) M.law with
      | () -> Alcotest.fail "the naive δ-mutator passed the optimality law"
      | exception QCheck.Test.Test_fail _ -> ())

let () =
  Alcotest.run "lattice laws"
    [
      ("Max_int", Max_int_laws.suite);
      ("Max_string", Max_string_laws.suite);
      ("Bool_or", Bool_laws.suite);
      ("GSet", Gset_laws.suite);
      ("GCounter", Gcounter_laws.suite);
      ("PNCounter", Pncounter_laws.suite);
      ("Product", Product_laws.suite);
      ("Lexico", Lexico_laws.suite);
      ("Linear_sum", Linear_sum_laws.suite);
      ("GMap", Gmap_laws.suite);
      ("2PSet", Two_pset_laws.suite);
      ("LWW", Lww_laws.suite);
      ("Epoch_flag", Flag_laws.suite);
      ("MV_register", Mv_laws.suite);
      ("Antichain", Antichain_laws.suite);
      ("Deep composite", Deep_laws.suite);
      ("AW OR-Set", Aw_laws.suite);
      ("Resettable counter", Resettable_laws.suite);
      ("Bounded counter", Bounded_laws.suite);
      ("Retwis user", User_laws.suite);
      ("δ-mutators", mutator_laws @ [ naive_mutator_fails ]);
    ]
