(** Linear sum composition [A ⊕ B]: every element of [B] sits above every
    element of [A].

    Following Appendix B/C (and matching their notation, where instances
    are written as tagged values [Left a] / [Right b]), the bottom of the
    sum is [Left ⊥A]; joins within a side are the side's joins and mixed
    joins resolve to the [Right] operand.  Decomposition follows the
    quotient-sublattice reasoning of Table IV: [Right ⊥B] is irreducible
    (it strictly dominates all of [A]). *)

module Make (A : Lattice_intf.DECOMPOSABLE) (B : Lattice_intf.DECOMPOSABLE) :
sig
  type t = Left of A.t | Right of B.t

  include Lattice_intf.DECOMPOSABLE with type t := t
end = struct
  type t = Left of A.t | Right of B.t

  let bottom = Left A.bottom
  let is_bottom = function Left a -> A.is_bottom a | Right _ -> false

  let join x y =
    match (x, y) with
    | Left a1, Left a2 -> Left (A.join a1 a2)
    | Right b1, Right b2 -> Right (B.join b1 b2)
    | (Right _ as r), Left _ | Left _, (Right _ as r) -> r

  let leq x y =
    match (x, y) with
    | Left a1, Left a2 -> A.leq a1 a2
    | Right b1, Right b2 -> B.leq b1 b2
    | Left _, Right _ -> true
    | Right _, Left _ -> false

  let equal x y =
    match (x, y) with
    | Left a1, Left a2 -> A.equal a1 a2
    | Right b1, Right b2 -> B.equal b1 b2
    | Left _, Right _ | Right _, Left _ -> false

  let compare x y =
    match (x, y) with
    | Left a1, Left a2 -> A.compare a1 a2
    | Right b1, Right b2 -> B.compare b1 b2
    | Left _, Right _ -> -1
    | Right _, Left _ -> 1

  let weight = function
    | Left a -> A.weight a
    | Right b -> max 1 (B.weight b)

  let byte_size = function
    | Left a -> 1 + A.byte_size a
    | Right b -> 1 + B.byte_size b

  let decompose = function
    | Left a -> List.map (fun d -> Left d) (A.decompose a)
    | Right b -> (
        match B.decompose b with
        | [] -> [ Right B.bottom ]
        | ds -> List.map (fun d -> Right d) ds)

  let fold_decompose f x acc =
    match x with
    | Left a -> A.fold_decompose (fun d acc -> f (Left d) acc) a acc
    | Right b ->
        if B.is_bottom b then f (Right B.bottom) acc
        else B.fold_decompose (fun d acc -> f (Right d) acc) b acc

  (* Sides never mix: anything [Left] is dominated by anything [Right],
     and a [Right] is never dominated by a [Left]. *)
  let delta x y =
    match (x, y) with
    | Left a1, Left a2 -> Left (A.delta a1 a2)
    | Left _, Right _ -> bottom
    | Right b1, Right b2 ->
        let d = B.delta b1 b2 in
        if B.is_bottom d then bottom else Right d
    | Right b1, Left _ -> Right b1

  (* The dual of [delta]; a bare [Right ⊥] is covered by any [Right]. *)
  let redundancy x y =
    match (x, y) with
    | Left a1, Left a2 -> Left (A.redundancy a1 a2)
    | Left _, Right _ -> x
    | Right b1, Right b2 ->
        if B.is_bottom b1 then x
        else
          let r = B.redundancy b1 b2 in
          if B.is_bottom r then bottom else Right r
    | Right _, Left _ -> bottom

  let codec =
    let open Crdt_wire.Codec in
    union ~name:"linear_sum"
      [
        case 0 A.codec
          (function Left a -> Some a | Right _ -> None)
          (fun a -> Left a);
        case 1 B.codec
          (function Right b -> Some b | Left _ -> None)
          (fun b -> Right b);
      ]

  let pp ppf = function
    | Left a -> Format.fprintf ppf "Left %a" A.pp a
    | Right b -> Format.fprintf ppf "Right %a" B.pp b
end
