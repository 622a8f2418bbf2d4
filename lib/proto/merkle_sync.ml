(** Hash-tree anti-entropy, the related-work baseline of [32, 33]: nodes
    exchange Merkle-tree digests to locate where their states diverge,
    then ship only the irreducible elements of the differing buckets.

    The tree is built over the irredundant decomposition [⇓x]: each
    irreducible hashes into one of [fanout^depth] leaf buckets, and inner
    nodes hash their children.  One synchronization round between two
    divergent replicas walks the tree level by level — root digest,
    mismatching subtrees, then the bucket contents — which is exactly the
    behaviour the paper ascribes to these protocols: "a significant
    number of message exchanges to identify the source of divergence" and
    "significant processing overhead due to the need of computing hash
    functions".  The walk happens through message cascades, so replicas
    still converge within the round; the cost shows up as extra messages,
    hash metadata and hashing work. *)

module Make (C : Protocol_intf.CRDT) :
  Protocol_intf.PROTOCOL with type crdt = C.t and type op = C.op = struct
  module Tree = Crdt_digest.Tree

  type crdt = C.t
  type op = C.op

  (* 4 levels of fanout 4: 256 leaf buckets. *)
  let fanout = 4
  let depth = 4
  let leaves = Tree.leaves ~fanout ~depth

  type node = {
    id : Crdt_core.Replica_id.t;
    neighbors : int list;
    x : C.t;
    cache : (C.t * (int array array * C.t list array)) option;
        (** digest tree of the last hashed state, keyed by physical
            equality — rebuilding it is the dominant cost of this
            protocol. *)
  }

  type message =
    | Root of int
    | Subtree of { path : int list; hashes : int list }
        (** digests of the children under [path] (root = []). *)
    | Bucket of { index : int; elements : C.t list; reply : bool }
        (** contents of a leaf bucket; [reply] marks the answering leg of
            the exchange so it is not answered again. *)

  let protocol_name = "merkle"

  (* Anti-entropy restarts from the root digest every tick, so any
     message lost to drops, cuts or downtime only costs extra rounds;
     the digest tree is a cache of the durable state and is simply
     dropped on crash and rebuilt on demand. *)
  let capabilities =
    {
      Protocol_intf.tolerates_drop = true;
      tolerates_partition = true;
      tolerates_delay = true;
      tolerates_crash = true;
      durable_restart = true;
    }

  let crash n = { n with cache = None }
  let recover n = n
  let load n s = { n with x = C.join n.x s; cache = None }

  let init ~id ~neighbors ~total:_ =
    {
      id = Crdt_core.Replica_id.of_int id;
      neighbors;
      x = C.bottom;
      cache = None;
    }

  let local_update n op = { n with x = C.mutate op n.id n.x }

  (* Deterministic bucket of an irreducible: the repo-wide digest hash
     (FNV-1a over the irreducible's wire encoding, lib/digest), so
     bucket placement is stable across processes — not just within a
     run, as the old structural [Hashtbl.hash] was. *)
  let hash_of y = Crdt_digest.Hash.of_value C.codec y
  let bucket_of y = Tree.bucket_of ~leaves (hash_of y)

  let buckets x =
    let b = Array.make leaves [] in
    List.iter (fun y -> b.(bucket_of y) <- y :: b.(bucket_of y)) (C.decompose x);
    b

  (* Level-by-level digests: level d has fanout^d nodes; level [depth]
     holds the bucket hashes (order-independent within a bucket). *)
  let compute_tree x =
    let b = buckets x in
    let levels =
      Tree.compute ~fanout ~depth
        (Array.map (fun elements -> Tree.bucket_hash (List.map hash_of elements)) b)
    in
    (levels, b)

  (* Hashing the whole state is what these protocols pay for; rebuild
     the tree only when the state has changed since the last build. *)
  let with_tree n =
    match n.cache with
    | Some (x0, t) when x0 == n.x -> (t, n)
    | _ ->
        let t = compute_tree n.x in
        (t, { n with cache = Some (n.x, t) })

  (* Index of the tree node reached by [path] at level [List.length
     path]. *)
  let index_of_path path =
    List.fold_left (fun acc c -> (acc * fanout) + c) 0 path

  let tick n =
    let (levels, _), n = with_tree n in
    let root = levels.(0).(0) in
    (n, List.map (fun j -> (j, Root root)) n.neighbors)

  let children_hashes levels path =
    let d = List.length path in
    let base = index_of_path path * fanout in
    List.init fanout (fun k -> levels.(d + 1).(base + k))

  let handle n ~src msg =
    match msg with
    | Root h ->
        let (levels, _), n = with_tree n in
        if levels.(0).(0) = h then (n, [])
        else (n, [ (src, Subtree { path = []; hashes = children_hashes levels [] }) ])
    | Subtree { path; hashes } ->
        let (levels, b), n = with_tree n in
        let d = List.length path in
        let replies = ref [] in
        List.iteri
          (fun k remote_hash ->
            let child_path = path @ [ k ] in
            let idx = index_of_path child_path in
            let local_hash = levels.(d + 1).(idx) in
            if local_hash <> remote_hash then
              if d + 1 = depth then
                replies :=
                  (src, Bucket { index = idx; elements = b.(idx); reply = false })
                  :: !replies
              else
                replies :=
                  ( src,
                    Subtree
                      { path = child_path; hashes = children_hashes levels child_path } )
                  :: !replies)
          hashes;
        (n, List.rev !replies)
    | Bucket { index; elements; reply } ->
        (* Join whatever we miss; on the requesting leg, answer once with
           the elements of our bucket the sender provably lacks (they
           just told us the bucket's full contents), keeping the exchange
           symmetric.  The memoized digest tree already partitions ⇓x by
           bucket, so the answer reads the cached bucket instead of
           re-decomposing the full state: an unchanged replica (empty
           [missing]) replies without rehashing anything, and a changed
           one rebuilds the tree once here and reuses it at the next
           [tick]. *)
        let theirs = List.fold_left C.join C.bottom elements in
        let missing = List.filter (fun y -> not (C.leq y n.x)) elements in
        let x = List.fold_left C.join n.x missing in
        let n = { n with x } in
        if reply then (n, [])
        else
          let (_, b), n = with_tree n in
          let mine = List.filter (fun y -> not (C.leq y theirs)) b.(index) in
          if mine = [] then (n, [])
          else (n, [ (src, Bucket { index; elements = mine; reply = true }) ])

  let state n = n.x

  let payload_weight = function
    | Root _ | Subtree _ -> 0
    | Bucket { elements; _ } ->
        List.fold_left (fun acc y -> acc + C.weight y) 0 elements

  let metadata_weight = function
    | Root _ -> 1
    | Subtree { hashes; _ } -> List.length hashes
    | Bucket _ -> 1

  let payload_bytes = function
    | Root _ | Subtree _ -> 0
    | Bucket { elements; _ } ->
        List.fold_left (fun acc y -> acc + C.byte_size y) 0 elements

  let metadata_bytes = function
    | Root _ -> 8
    | Subtree { path; hashes } -> (8 * List.length hashes) + List.length path
    | Bucket _ -> 8

  (* Digest hashes can be any int (the inner-node mix overflows), so
     they travel zigzag-encoded; path components and bucket indices are
     small non-negative ints. *)
  let message_codec =
    let open Crdt_wire.Codec in
    union ~name:"merkle_message"
      [
        case 0 int (function Root h -> Some h | _ -> None) (fun h -> Root h);
        case 1
          (pair (list varint) (list int))
          (function
            | Subtree { path; hashes } -> Some (path, hashes) | _ -> None)
          (fun (path, hashes) -> Subtree { path; hashes });
        case 2
          (triple varint (list C.codec) bool)
          (function
            | Bucket { index; elements; reply } -> Some (index, elements, reply)
            | _ -> None)
          (fun (index, elements, reply) -> Bucket { index; elements; reply });
      ]

  let message_wire_bytes m = Crdt_wire.Frame.value_size message_codec m

  (* The digest tree is recomputed on demand; resident metadata is the
     cached tree of the last tick: fanout^0 + ... + fanout^depth
     hashes. *)
  let tree_bytes =
    let rec total d acc width =
      if d > depth then acc else total (d + 1) (acc + width) (width * fanout)
    in
    8 * total 0 0 1

  let memory n =
    {
      Protocol_intf.weight = C.weight n.x;
      bytes = C.byte_size n.x;
      metadata_bytes = tree_bytes;
    }
end
