(** Per-object protocol composition.

    The paper's Retwis deployment replicates ~30 K {e independent} CRDT
    objects, each synchronized on its own (with its own δ-buffer and its
    own inflation check); messages exchanged between two nodes bundle the
    per-object payloads.  This combinator reproduces that: it lifts a
    protocol over a single CRDT to a protocol over a keyed collection of
    objects, creating per-object protocol instances lazily and batching
    their messages per destination.

    This matters for fidelity: with one big composed lattice, classic
    delta-based is penalized even under low contention (any received
    δ-group touching {e any} object fails the inflation check), whereas
    with per-object replication the check is per object — which is exactly
    why the paper observes classic ≈ BP+RR at Zipf 0.5 and a blow-up only
    as contention concentrates updates on few objects. *)

module type KEY = sig
  type t

  val compare : t -> t -> int
  val byte_size : t -> int
  val codec : t Crdt_wire.Codec.t
end

module Make
    (K : KEY)
    (C : Protocol_intf.CRDT)
    (P : Protocol_intf.PROTOCOL with type crdt = C.t and type op = C.op) : sig
  include
    Protocol_intf.PROTOCOL
      with type crdt = (K.t * C.t) list
       and type op = K.t * C.op

  val equal_states : crdt -> crdt -> bool
  (** Equality of sharded states, for convergence checks: objects absent
      on one side must be bottom on the other. *)
end = struct
  module Km = Map.Make (K)

  type crdt = (K.t * C.t) list
  (** Association of object key to object state, bottoms omitted. *)

  type op = K.t * C.op

  module Iset = Set.Make (Int)

  type node = {
    id : int;
    neighbors : int list;
    total : int;
    objects : P.node Km.t;
    manifest_from : Iset.t;
        (** Neighbors still owed a key manifest after a restart
            (volatile; the request is retried every tick until their
            [Manifest] arrives). *)
  }

  type message =
    | Batch of (K.t * P.message) list
        (** Per-object payloads bundled per destination. *)
    | ManifestReq  (** Restarted node asking which objects exist. *)
    | Manifest of K.t list  (** Every key the sender has an instance for. *)

  let protocol_name = "sharded-" ^ P.protocol_name

  (* Per-message faults (drop, partition cuts, delay) are exactly as
     tolerable as in the per-object protocol.  Crash–restart needs one
     extra exchange beyond the per-object recovery: object instances are
     created lazily on first use, so a restarted node would never run
     the per-object recovery for keys other nodes created while it was
     down — it does not know they exist, and delta-based protocols never
     re-advertise old irreducibles for them.  [recover] therefore asks
     every neighbor for its key manifest ([ManifestReq], retried per
     tick until answered); unknown keys in a [Manifest] get a freshly
     recovered instance whose own recovery exchange then pulls the
     object's state.  Keys only the restarted node holds need nothing
     special: its recovered instances re-sync each object
     bidirectionally, and peers instantiate unknown keys lazily on the
     first message.  With that gap closed, crash tolerance is simply
     inherited from the per-object protocol. *)
  let capabilities = P.capabilities

  let crash n =
    { n with objects = Km.map P.crash n.objects; manifest_from = Iset.empty }

  let recover n =
    {
      n with
      objects = Km.map P.recover n.objects;
      manifest_from = Iset.of_list n.neighbors;
    }

  (* Restart-from-disk: every key present in the durable image gets a
     per-object [P.load]; keys created cluster-wide while this node was
     down (or lost to a torn log tail) are pulled by the same manifest
     exchange an in-memory restart runs. *)
  let load n s =
    let objects =
      List.fold_left
        (fun objects (k, x) ->
          let o =
            match Km.find_opt k objects with
            | Some o -> o
            | None -> P.init ~id:n.id ~neighbors:n.neighbors ~total:n.total
          in
          Km.add k (P.load o x) objects)
        n.objects s
    in
    { n with objects; manifest_from = Iset.of_list n.neighbors }

  let init ~id ~neighbors ~total =
    { id; neighbors; total; objects = Km.empty; manifest_from = Iset.empty }

  let obj n k =
    match Km.find_opt k n.objects with
    | Some o -> o
    | None ->
        let fresh = P.init ~id:n.id ~neighbors:n.neighbors ~total:n.total in
        (* While a post-restart manifest exchange is still in flight, a
           lazily created instance (first local op, or first inbound
           batch, for a key this node has never seen) may shadow
           pre-crash state held elsewhere — and if it exists by the time
           the manifest arrives, the manifest won't touch it.  Arm its
           per-object recovery at creation instead. *)
        if Iset.is_empty n.manifest_from then fresh else P.recover fresh

  let local_update n (k, op) =
    { n with objects = Km.add k (P.local_update (obj n k) op) n.objects }

  (* Gather per-object outbound messages into one batch per
     destination. *)
  let batch_by_dest per_object =
    let add acc (dest, tagged) =
      let existing =
        match List.assoc_opt dest acc with Some l -> l | None -> []
      in
      (dest, tagged :: existing) :: List.remove_assoc dest acc
    in
    List.fold_left add [] per_object
    |> List.map (fun (dest, msgs) -> (dest, List.rev msgs))

  (* Only objects whose node changed are re-added, and a tick that
     changes nothing and sends nothing returns [n] itself, so idle
     objects cost one [P.tick] call and no allocation. *)
  let tick n =
    let objects = ref n.objects in
    let outbound = ref [] in
    Km.iter
      (fun k o ->
        let o', msgs = P.tick o in
        if o' != o then objects := Km.add k o' !objects;
        List.iter
          (fun (dest, m) -> outbound := (dest, (k, m)) :: !outbound)
          msgs)
      n.objects;
    let manifest_reqs =
      Iset.fold (fun j acc -> (j, ManifestReq) :: acc) n.manifest_from []
    in
    if !objects == n.objects && !outbound = [] && manifest_reqs = [] then
      (n, [])
    else
      let batches =
        batch_by_dest (List.rev !outbound)
        |> List.map (fun (dest, msgs) -> (dest, Batch msgs))
      in
      ({ n with objects = !objects }, manifest_reqs @ batches)

  let handle n ~src msg =
    match msg with
    | ManifestReq -> (n, [ (src, Manifest (List.map fst (Km.bindings n.objects))) ])
    | Manifest keys ->
        (* Instantiate (as freshly recovered) every key we have never
           seen: its per-object recovery exchange pulls the state. *)
        let objects =
          List.fold_left
            (fun objects k ->
              if Km.mem k objects then objects
              else
                Km.add k
                  (P.recover
                     (P.init ~id:n.id ~neighbors:n.neighbors ~total:n.total))
                  objects)
            n.objects keys
        in
        ({ n with objects; manifest_from = Iset.remove src n.manifest_from }, [])
    | Batch batch ->
        let n, replies =
          List.fold_left
            (fun (n, replies) (k, m) ->
              let o, rs = P.handle (obj n k) ~src m in
              ( { n with objects = Km.add k o n.objects },
                List.fold_left
                  (fun replies (dest, r) -> (dest, (k, r)) :: replies)
                  replies rs ))
            (n, []) batch
        in
        (n, batch_by_dest (List.rev replies)
            |> List.map (fun (dest, msgs) -> (dest, Batch msgs)))

  let state n =
    Km.fold
      (fun k o acc ->
        let x = P.state o in
        if C.is_bottom x then acc else (k, x) :: acc)
      n.objects []
    |> List.rev

  let payload_weight = function
    | Batch batch ->
        List.fold_left (fun acc (_, m) -> acc + P.payload_weight m) 0 batch
    | ManifestReq | Manifest _ -> 0

  let metadata_weight = function
    | Batch batch ->
        List.fold_left (fun acc (_, m) -> acc + P.metadata_weight m) 0 batch
    | ManifestReq -> 1
    | Manifest keys -> List.length keys

  let payload_bytes = function
    | Batch batch ->
        List.fold_left (fun acc (_, m) -> acc + P.payload_bytes m) 0 batch
    | ManifestReq | Manifest _ -> 0

  (* Each bundled entry additionally carries its object key. *)
  let metadata_bytes = function
    | Batch batch ->
        List.fold_left
          (fun acc (k, m) -> acc + K.byte_size k + P.metadata_bytes m)
          0 batch
    | ManifestReq -> 8
    | Manifest keys ->
        List.fold_left (fun acc k -> acc + K.byte_size k) 8 keys

  let message_codec =
    let open Crdt_wire.Codec in
    union ~name:("sharded_" ^ P.protocol_name)
      [
        case 0
          (list (pair K.codec P.message_codec))
          (function Batch b -> Some b | _ -> None)
          (fun b -> Batch b);
        case 1 unit
          (function ManifestReq -> Some () | _ -> None)
          (fun () -> ManifestReq);
        case 2 (list K.codec)
          (function Manifest ks -> Some ks | _ -> None)
          (fun ks -> Manifest ks);
      ]

  let message_wire_bytes batch =
    Crdt_wire.Frame.framed_size
      ~payload_len:(Crdt_wire.Codec.encoded_size message_codec batch)

  (* One walk over the objects for all three figures. *)
  let memory n =
    let weight = ref 0 and bytes = ref 0 and metadata_bytes = ref 0 in
    Km.iter
      (fun _ o ->
        let m = P.memory o in
        weight := !weight + m.weight;
        bytes := !bytes + m.bytes;
        metadata_bytes := !metadata_bytes + m.metadata_bytes)
      n.objects;
    {
      Protocol_intf.weight = !weight;
      bytes = !bytes;
      metadata_bytes = !metadata_bytes;
    }

  let equal_states (a : crdt) (b : crdt) =
    let to_map l =
      List.fold_left (fun m (k, x) -> Km.add k x m) Km.empty l
    in
    let ma = to_map a and mb = to_map b in
    Km.merge
      (fun _ x y ->
        let x = Option.value x ~default:C.bottom
        and y = Option.value y ~default:C.bottom in
        if C.equal x y then None else Some ())
      ma mb
    |> Km.is_empty
end
