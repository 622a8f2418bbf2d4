(* The height-balanced tree under Map_lattice and Powerset: random
   operation sequences against Stdlib's Map and, with [()] values as
   Powerset uses it, Stdlib's Set as the oracle (with the AVL invariant
   checked after every step), the cost of Δ, ⊑ and = against a recent
   version counted in key comparisons, and the physical-sharing
   guarantee of join. *)

open Crdt_core
module M = Avl.Map (Int)
module Ss = Set.Make (Int)
module Ms = Map.Make (Int)

(* -- invariant --------------------------------------------------------- *)

(* Ordered keys, correct cached heights and children's heights within 2;
   returns the height. *)
let rec map_ok lo hi = function
  | M.Empty -> 0
  | M.Node { l; k; r; h; _ } ->
      let in_range =
        (match lo with Some lo -> lo < k | None -> true)
        && match hi with Some hi -> k < hi | None -> true
      in
      if not in_range then Alcotest.failf "map key %d out of order" k;
      let hl = map_ok lo (Some k) l and hr = map_ok (Some k) hi r in
      if h <> 1 + max hl hr then Alcotest.failf "map height wrong at %d" k;
      if abs (hl - hr) > 2 then Alcotest.failf "map unbalanced at %d" k;
      h

let same_set what a o =
  ignore (map_ok None None a);
  Alcotest.(check (list int)) what (Ss.elements o) (M.keys a)

let same_map what a o =
  ignore (map_ok None None a);
  Alcotest.(check (list (pair int int))) what (Ms.bindings o) (M.bindings a)

(* -- random sequences against the oracle ------------------------------- *)

(* One step.  Binary operations take a second operand that is either
   unrelated or a recent version of the current tree (a few adds away), so
   the shared-subtree shortcuts are exercised as well as the splits. *)
type op =
  | Add of int
  | Remove of int
  | Union of bool * int list
  | Diff of bool * int list
  | Inter of bool * int list
  | Split of int
  | Filter of int

let gen_op =
  let open QCheck.Gen in
  let key = int_range 0 200 in
  let keys = list_size (int_range 0 12) key in
  frequency
    [
      (6, map (fun k -> Add k) key);
      (2, map (fun k -> Remove k) key);
      (2, map2 (fun b ks -> Union (b, ks)) bool keys);
      (2, map2 (fun b ks -> Diff (b, ks)) bool keys);
      (2, map2 (fun b ks -> Inter (b, ks)) bool keys);
      (1, map (fun k -> Split k) key);
      (1, map (fun k -> Filter (k mod 5 + 2)) key);
    ]

let print_op = function
  | Add k -> Printf.sprintf "add %d" k
  | Remove k -> Printf.sprintf "remove %d" k
  | Union (b, ks) | Diff (b, ks) | Inter (b, ks) ->
      Printf.sprintf "binop(%b) [%s]" b
        (String.concat ";" (List.map string_of_int ks))
  | Split k -> Printf.sprintf "split %d" k
  | Filter m -> Printf.sprintf "filter mod %d" m

let arb_ops =
  QCheck.make
    ~print:(fun l -> String.concat ", " (List.map print_op l))
    QCheck.Gen.(list_size (int_range 1 60) gen_op)

(* A set is a map to [()], walked with the callbacks Powerset passes. *)
let set_filter p = M.filter_map (fun e () -> if p e then Some () else None)
let set_diff = M.diff (fun () () -> None)
let set_subset = M.sub (fun () () -> true)
let dup_count = ref 0

let set_step (a, o) op =
  let second recent ks =
    if recent then
      ( List.fold_left (fun a k -> M.add k () a) a ks,
        List.fold_left (fun o k -> Ss.add k o) o ks )
    else
      (List.fold_left (fun a k -> M.add k () a) M.empty ks, Ss.of_list ks)
  in
  let a, o =
    match op with
    | Add k -> (M.add k () a, Ss.add k o)
    | Remove k -> (set_filter (fun e -> e <> k) a, Ss.remove k o)
    | Union (recent, ks) ->
        let b, ob = second recent ks in
        dup_count := 0;
        let u = M.union (fun _ () () -> incr dup_count) a b in
        Alcotest.(check int)
          "dup count" (Ss.cardinal (Ss.inter o ob)) !dup_count;
        (u, Ss.union o ob)
    | Diff (recent, ks) ->
        let b, ob = second recent ks in
        same_set "b \\ a" (set_diff b a) (Ss.diff ob o);
        Alcotest.(check bool) "a ⊆ b" (Ss.subset o ob) (set_subset a b);
        Alcotest.(check bool) "b ⊆ a" (Ss.subset ob o) (set_subset b a);
        Alcotest.(check int) "compare"
          (compare (Ss.compare o ob) 0)
          (compare (M.compare (fun () () -> 0) a b) 0);
        (set_diff a b, Ss.diff o ob)
    | Inter (recent, ks) ->
        let b, ob = second recent ks in
        (M.inter (fun () () -> Some ()) a b, Ss.inter o ob)
    | Split k ->
        let l, found, r = M.split k a and ol, opresent, or_ = Ss.split k o in
        same_set "split left" l ol;
        same_set "split right" r or_;
        Alcotest.(check bool) "split present" opresent (found <> None);
        (a, o)
    | Filter m ->
        let keep e = e mod m <> 0 in
        (set_filter keep a, Ss.filter keep o)
  in
  same_set (print_op op) a o;
  (a, o)

let map_step (a, o) op =
  (* Values are versions: union keeps the max, diff keeps v1 where it
     exceeds v2, inter keeps min (the covered part). *)
  let second recent ks =
    let bump m k = M.add_with (fun _ v _ -> v + 1) k 1 m
    and obump m k =
      Ms.update k (function Some v -> Some (v + 1) | None -> Some 1) m
    in
    if recent then (List.fold_left bump a ks, List.fold_left obump o ks)
    else (List.fold_left bump M.empty ks, List.fold_left obump Ms.empty ks)
  in
  let dmax v1 v2 = if v1 > v2 then Some v1 else None in
  let a, o =
    match op with
    | Add k -> (M.add k (k mod 7) a, Ms.add k (k mod 7) o)
    | Remove k -> (M.remove k a, Ms.remove k o)
    | Union (recent, ks) ->
        let b, ob = second recent ks in
        ( M.union (fun _ -> max) a b,
          Ms.union (fun _ x y -> Some (max x y)) o ob )
    | Diff (recent, ks) ->
        let b, ob = second recent ks in
        let odiff x y =
          Ms.merge
            (fun _ v1 v2 ->
              match (v1, v2) with
              | Some v1, None -> Some v1
              | Some v1, Some v2 -> dmax v1 v2
              | None, _ -> None)
            x y
        in
        same_map "b \\ a" (M.diff dmax b a) (odiff ob o);
        let osub x y =
          Ms.for_all
            (fun k v ->
              match Ms.find_opt k y with Some w -> v <= w | None -> false)
            x
        in
        Alcotest.(check bool) "a ⊑ b" (osub o ob) (M.sub ( <= ) a b);
        Alcotest.(check bool) "b ⊑ a" (osub ob o) (M.sub ( <= ) b a);
        Alcotest.(check int) "compare"
          (compare (Ms.compare Int.compare o ob) 0)
          (compare (M.compare Int.compare a b) 0);
        (M.diff dmax a b, odiff o ob)
    | Inter (recent, ks) ->
        let b, ob = second recent ks in
        ( M.inter (fun x y -> Some (min x y)) a b,
          Ms.merge
            (fun _ x y ->
              match (x, y) with Some x, Some y -> Some (min x y) | _ -> None)
            o ob )
    | Split k ->
        let l, found, r = M.split k a and ol, ofound, or_ = Ms.split k o in
        same_map "split left" l ol;
        same_map "split right" r or_;
        Alcotest.(check (option int)) "split found" ofound found;
        (a, o)
    | Filter m ->
        let f k v = if k mod m = 0 then None else Some (v + (k mod 2)) in
        (M.filter_map f a, Ms.filter_map f o)
  in
  same_map (print_op op) a o;
  (a, o)

let oracle_tests =
  List.map QCheck_alcotest.to_alcotest
    [
      QCheck.Test.make ~count:300
        ~name:"Avl.Map with unit values agrees with Stdlib Set" arb_ops
        (fun ops ->
          ignore (List.fold_left set_step (M.empty, Ss.empty) ops);
          true);
      QCheck.Test.make ~count:300 ~name:"Avl.Map agrees with Stdlib Map" arb_ops
        (fun ops ->
          ignore (List.fold_left map_step (M.empty, Ms.empty) ops);
          true);
    ]

(* -- cost against a recent version ------------------------------------ *)

let compares = ref 0

module Counted_int = struct
  include Gmap.Int_key

  let compare a b =
    incr compares;
    Int.compare a b
end

module Cmap = Gmap.Make (Counted_int) (Version)
module Cset = Gset.Make (Counted_int)

let rid = Replica_id.of_int 0

let counted f =
  compares := 0;
  let r = f () in
  (r, !compares)

(* A 1 000-key GMap and a 4 000-element GSet, each with four changes: two
   value bumps and a new key at each end for the map, a new element at
   each end and two in the middle for the set. *)
let map_versions () =
  let x = Cmap.of_list (List.init 1000 (fun k -> (k, 1))) in
  let x' =
    List.fold_left
      (fun m k -> Cmap.apply k Version.Bump rid m)
      x [ 10; 500; -1; 1000 ]
  in
  (x, x')

let set_versions () =
  let x = Cset.of_list (List.init 4000 (fun i -> 2 * i)) in
  let x' =
    List.fold_left (fun s e -> Cset.add e rid s) x [ -2; 8000; 1001; 5001 ]
  in
  (x, x')

let budget = 100

let within what n =
  if n >= budget then
    Alcotest.failf "%s made %d compare calls (budget %d)" what n budget

let cost_tests =
  [
    Alcotest.test_case "GMap: Δ, ⊑ and = against a recent version" `Quick
      (fun () ->
        let x, x' = map_versions () in
        let d, n = counted (fun () -> Cmap.delta x' x) in
        within "Δ(x′, x)" n;
        Alcotest.(check (list (pair int int)))
          "Δ carries the four changes"
          [ (-1, 1); (10, 2); (500, 2); (1000, 1) ]
          (Cmap.bindings d);
        let le, n = counted (fun () -> Cmap.leq x x') in
        within "x ⊑ x′" n;
        Alcotest.(check bool) "x ⊑ x′" true le;
        let eq, n = counted (fun () -> Cmap.equal x' x) in
        within "x′ = x" n;
        Alcotest.(check bool) "x′ ≠ x" false eq);
    Alcotest.test_case "GSet: Δ, ⊑ and = against a recent version" `Quick
      (fun () ->
        let x, x' = set_versions () in
        let d, n = counted (fun () -> Cset.delta x' x) in
        within "Δ(x′, x)" n;
        Alcotest.(check (list int))
          "Δ carries the four changes" [ -2; 1001; 5001; 8000 ]
          (Cset.elements d);
        let le, n = counted (fun () -> Cset.leq x x') in
        within "x ⊑ x′" n;
        Alcotest.(check bool) "x ⊑ x′" true le;
        let eq, n = counted (fun () -> Cset.equal x' x) in
        within "x′ = x" n;
        Alcotest.(check bool) "x′ ≠ x" false eq;
        (* Equal content reached by another insertion order is still
           equal, through the splits rather than the shortcuts. *)
        let y = Cset.of_list (List.rev (Cset.elements x')) in
        Alcotest.(check bool) "rebuilt x′ = x′" true (Cset.equal y x'));
  ]

(* -- join keeps its first operand -------------------------------------- *)

let sharing_tests =
  let gmap =
    Gmap.Versioned.of_list (List.init 300 (fun k -> (3 * k, (k mod 5) + 1)))
  and gset = Gset.Of_int.of_list (List.init 300 (fun k -> 3 * k)) in
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:300 ~name:"map: join x d == x whenever d ⊑ x"
         QCheck.(
           list_of_size Gen.(int_range 0 40)
             (pair (int_range 0 299) (int_range 0 5)))
         (fun picks ->
           (* d takes some of x's keys at values at most x's. *)
           let d =
             Gmap.Versioned.of_list
               (List.map
                  (fun (i, lower) ->
                    let k = 3 * i in
                    (k, max 0 (Gmap.Versioned.find k gmap - lower)))
                  picks)
           in
           Gmap.Versioned.leq d gmap && Gmap.Versioned.join gmap d == gmap));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:300 ~name:"set: join x d == x whenever d ⊑ x"
         QCheck.(list_of_size Gen.(int_range 0 40) (int_range 0 299))
         (fun picks ->
           let d = Gset.Of_int.of_list (List.map (fun i -> 3 * i) picks) in
           Gset.Of_int.leq d gset && Gset.Of_int.join gset d == gset));
    Alcotest.test_case "a joined-in δ leaves x ⊑ x ⊔ d cheap" `Quick (fun () ->
        let x, _ = map_versions () in
        let d = Cmap.apply_delta 77 Version.Bump rid x in
        let x' = Cmap.join x d in
        let le, n = counted (fun () -> Cmap.leq x x') in
        Alcotest.(check bool) "x ⊑ x ⊔ d" true le;
        within "x ⊑ x ⊔ d" n;
        let d', n = counted (fun () -> Cmap.delta x' x) in
        within "Δ(x ⊔ d, x)" n;
        Alcotest.(check bool) "Δ(x ⊔ d, x) = d" true (Cmap.equal d d'));
  ]

let () =
  Alcotest.run "avl"
    [
      ("oracle", oracle_tests);
      ("recent-version cost", cost_tests);
      ("sharing", sharing_tests);
    ]
