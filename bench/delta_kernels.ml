(* Micro-kernels for the hot paths of the lattice core:

   1. Δ(a,b) itself — the generic decompose-then-filter oracle
      (Delta.Make) against the structural DECOMPOSABLE.delta, across
      GCounter / GSet / GMap at several state sizes;
   2. the tree kernels — Δ, ⊑ and = of a GMap and a GSet against a
      recent version of themselves (the persist sink's and the runtime's
      change check's shape), plus the single-tree operations that must
      not pay for it (join of a one-key δ, lookups, unshared join and Δ),
      each timed beside the same operation on Stdlib's Map / Set.

   Results print as tables and, with --json, land in
   BENCH_delta_kernels.json so the perf trajectory is machine-readable
   across PRs. *)

open Crdt_core

(* -- timing ------------------------------------------------------------ *)

(* Nanoseconds per call of [f], after one warm-up call, over at least
   0.2 s of CPU. *)
let ns_per_run f =
  ignore (f ());
  Report.cpu_per_run ~floor:0.2 f *. 1e9

(* -- Δ kernels --------------------------------------------------------- *)

module Gs = Gset.Of_int
module Dset = Delta.Make (Gs)
module Dmap = Delta.Make (Gmap.Versioned)
module Dcounter = Delta.Make (Gcounter)

(* States where half of [a] is redundant against [b] — the regime the RR
   extraction lives in. *)
let gset_pair n =
  (Gs.of_list (List.init n Fun.id), Gs.of_list (List.init n (fun i -> i + (n / 2))))

let gmap_pair n =
  ( Gmap.Versioned.of_list (List.init n (fun i -> (i, 2))),
    Gmap.Versioned.of_list
      (List.init n (fun i ->
           if i < n / 2 then (i + (n / 2), 2) else (i + (n / 2), 1))) )

let gcounter_pair n =
  ( Gcounter.of_list (List.init n (fun i -> (Replica_id.of_int i, 2))),
    Gcounter.of_list
      (List.init n (fun i ->
           (Replica_id.of_int (i + (n / 2)), if i < n / 2 then 2 else 1))) )

type delta_row = {
  crdt : string;
  size : int;
  generic_ns : float;
  structural_ns : float;
}

let delta_kernels sizes =
  List.concat_map
    (fun size ->
      let s1, s2 = gset_pair size in
      let m1, m2 = gmap_pair size in
      let c1, c2 = gcounter_pair size in
      [
        {
          crdt = "gset";
          size;
          generic_ns = ns_per_run (fun () -> Dset.delta s1 s2);
          structural_ns = ns_per_run (fun () -> Gs.delta s1 s2);
        };
        {
          crdt = "gmap";
          size;
          generic_ns = ns_per_run (fun () -> Dmap.delta m1 m2);
          structural_ns = ns_per_run (fun () -> Gmap.Versioned.delta m1 m2);
        };
        {
          crdt = "gcounter";
          size;
          generic_ns = ns_per_run (fun () -> Dcounter.delta c1 c2);
          structural_ns = ns_per_run (fun () -> Gcounter.delta c1 c2);
        };
      ])
    sizes

(* -- tree kernels -------------------------------------------------------- *)

(* Map_lattice and Powerset as they were on Stdlib's Map and Set, kept
   as the baseline the tree kernels are timed beside (specialised to the
   GMap K% value lattice, [Version], and to integer elements): cached
   cardinal and weight, Δ by a lookup per binding, ⊑ by lookups or a
   merged walk, = by Map.equal; the set is Stdlib's Set as is. *)
module Stdlib_gmap = struct
  module M = Map.Make (Int)

  type t = { m : Version.t M.t; c : int; w : int }

  let bottom = { m = M.empty; c = 0; w = 0 }

  let set k v t =
    match M.find_opt k t.m with
    | None -> { m = M.add k v t.m; c = t.c + 1; w = t.w + Version.weight v }
    | Some o ->
        { t with m = M.add k v t.m; w = t.w - Version.weight o + Version.weight v }

  let of_list l = List.fold_left (fun t (k, v) -> set k v t) bottom l
  let find k t = match M.find_opt k t.m with Some v -> v | None -> Version.bottom

  let join t1 t2 =
    let c = ref (t1.c + t2.c) and w = ref (t1.w + t2.w) in
    let m =
      M.union
        (fun _ v1 v2 ->
          let v = Version.join v1 v2 in
          decr c;
          w := !w - Version.weight v1 - Version.weight v2 + Version.weight v;
          Some v)
        t1.m t2.m
    in
    { m; c = !c; w = !w }

  let delta t1 t2 =
    M.fold
      (fun k v1 acc ->
        let d =
          match M.find_opt k t2.m with
          | None -> v1
          | Some v2 -> Version.delta v1 v2
        in
        if Version.is_bottom d then acc else set k d acc)
      t1.m bottom

  let leq t1 t2 =
    let lookup () =
      M.for_all
        (fun k v1 ->
          match M.find_opt k t2.m with
          | Some v2 -> Version.leq v1 v2
          | None -> false)
        t1.m
    and walk () =
      let rec go s1 s2 =
        match s1 () with
        | Seq.Nil -> true
        | Seq.Cons ((k1, v1), s1') ->
            let rec advance s2 =
              match s2 () with
              | Seq.Nil -> false
              | Seq.Cons ((k2, v2), s2') ->
                  let c = Int.compare k1 k2 in
                  if c < 0 then false
                  else if c = 0 then Version.leq v1 v2 && go s1' s2'
                  else advance s2'
            in
            advance s2
      in
      go (M.to_seq t1.m) (M.to_seq t2.m)
    in
    t1.m == t2.m
    || (t1.c <= t2.c && if 8 * t1.c <= t2.c then lookup () else walk ())

  let equal t1 t2 = t1.m == t2.m || (t1.w = t2.w && M.equal Version.equal t1.m t2.m)
  let bindings t = M.bindings t.m
end

module Stdlib_gset = Set.Make (Int)
module Gm = Gmap.Versioned

type tree_row = {
  group : string;  (** "recent" (change-sized) or "parity". *)
  tcrdt : string;
  case : string;
  tsize : int;
  lib_ns : float;  (** lib/core's GMap / GSet. *)
  stdlib_ns : float;  (** the Stdlib reference above. *)
}

(* One tree kernel: [lib] and [stdlib] must agree (checked once, before
   any timing), then both are timed in [rounds] interleaved rounds and
   each reports its median. *)
let tree_case ~rounds ~group ~crdt ~case ~size ~agree lib stdlib =
  if not (agree ()) then
    failwith
      (Printf.sprintf "delta: %s %s %s: lib/core and Stdlib results differ"
         group crdt case);
  let a = ref [] and b = ref [] in
  for _ = 1 to rounds do
    a := (Report.cpu_per_run ~floor:0.04 lib *. 1e9) :: !a;
    b := (Report.cpu_per_run ~floor:0.04 stdlib *. 1e9) :: !b
  done;
  {
    group;
    tcrdt = crdt;
    case;
    tsize = size;
    lib_ns = (Report.spread !a).median;
    stdlib_ns = (Report.spread !b).median;
  }

let rid = Replica_id.of_int 0

(* Four changes on top of a base state: two value bumps and a new key at
   each end for the map, a new element at each end and two in the middle
   for the set. *)
let map_changes = [ 10; 500; -1; 1000 ]
let set_changes = [ -2; 8000; 1001; 5001 ]

let tree_kernels ~rounds =
  let same_bindings a b = Gm.bindings a = Stdlib_gmap.bindings b in
  let same_elements a b = Gs.elements a = Stdlib_gset.elements b in
  (* Recent versions: x′ is x plus four changes, built the way replicas
     build them (one mutator at a time), and y is x ⊔ Δ(x′, x) — the
     same content reached through a join. *)
  let mx = Gm.of_list (List.init 1000 (fun k -> (k, 1))) in
  let mx' = List.fold_left (fun m k -> Gm.apply k Version.Bump rid m) mx map_changes in
  let my = Gm.join mx (Gm.delta mx' mx) in
  let rx = Stdlib_gmap.of_list (Gm.bindings mx) in
  let rx' =
    List.fold_left
      (fun m k -> Stdlib_gmap.set k (Stdlib_gmap.find k m + 1) m)
      rx map_changes
  in
  let ry = Stdlib_gmap.join rx (Stdlib_gmap.delta rx' rx) in
  let sx = Gs.of_list (List.init 4000 (fun i -> 2 * i)) in
  let sx' = List.fold_left (fun s e -> Gs.add e rid s) sx set_changes in
  let sy = Gs.join sx (Gs.delta sx' sx) in
  let zx = Stdlib_gset.of_list (Gs.elements sx) in
  let zx' = List.fold_left (fun s e -> Stdlib_gset.add e s) zx set_changes in
  let zy = Stdlib_gset.union zx (Stdlib_gset.diff zx' zx) in
  let recent =
    [
      tree_case ~rounds ~group:"recent" ~crdt:"gmap" ~case:"delta(x', x)" ~size:1000
        ~agree:(fun () -> same_bindings (Gm.delta mx' mx) (Stdlib_gmap.delta rx' rx))
        (fun () -> Gm.delta mx' mx)
        (fun () -> Stdlib_gmap.delta rx' rx);
      tree_case ~rounds ~group:"recent" ~crdt:"gmap" ~case:"x <= x'" ~size:1000
        ~agree:(fun () -> Gm.leq mx mx' = Stdlib_gmap.leq rx rx')
        (fun () -> Gm.leq mx mx')
        (fun () -> Stdlib_gmap.leq rx rx');
      tree_case ~rounds ~group:"recent" ~crdt:"gmap" ~case:"x' = x + delta" ~size:1000
        ~agree:(fun () -> Gm.equal mx' my && Stdlib_gmap.equal rx' ry)
        (fun () -> Gm.equal mx' my)
        (fun () -> Stdlib_gmap.equal rx' ry);
      tree_case ~rounds ~group:"recent" ~crdt:"gset" ~case:"delta(x', x)" ~size:4000
        ~agree:(fun () -> same_elements (Gs.delta sx' sx) (Stdlib_gset.diff zx' zx))
        (fun () -> Gs.delta sx' sx)
        (fun () -> Stdlib_gset.diff zx' zx);
      tree_case ~rounds ~group:"recent" ~crdt:"gset" ~case:"x <= x'" ~size:4000
        ~agree:(fun () -> Gs.leq sx sx' = Stdlib_gset.subset zx zx')
        (fun () -> Gs.leq sx sx')
        (fun () -> Stdlib_gset.subset zx zx');
      tree_case ~rounds ~group:"recent" ~crdt:"gset" ~case:"x' = x + delta" ~size:4000
        ~agree:(fun () -> Gs.equal sx' sy && Stdlib_gset.equal zx' zy)
        (fun () -> Gs.equal sx' sy)
        (fun () -> Stdlib_gset.equal zx' zy);
    ]
  in
  (* Parity at 1 024: a one-key δ joined into the state (a bump of a
     middle key; a new middle element), every key looked up once, and
     the unshared half-overlapping pairs of the Δ kernels above. *)
  let n = 1024 in
  (* Both sides are built by the same algorithm from the same list — the
     maps one [set] at a time, the sets balanced from the sorted list —
     so the two trees have the same shape. *)
  let m1, m2 = gmap_pair n and s1, s2 = gset_pair n in
  let build_map m = Gm.of_list (List.rev (Gm.bindings m))
  and build_ref m = Stdlib_gmap.of_list (List.rev (Gm.bindings m)) in
  let r1 = build_ref m1 and r2 = build_ref m2 in
  let m1 = build_map m1 and m2 = build_map m2 in
  let z1 = Stdlib_gset.of_list (Gs.elements s1)
  and z2 = Stdlib_gset.of_list (Gs.elements s2) in
  let md = Gm.apply_delta 700 Version.Bump rid m1 in
  let rd = Stdlib_gmap.of_list (Gm.bindings md) in
  let sd = Gs.singleton_of (n + 700) and zd = Stdlib_gset.singleton (n + 700) in
  let keys = List.init n Fun.id in
  let parity =
    [
      tree_case ~rounds ~group:"parity" ~crdt:"gmap" ~case:"x + one-key delta" ~size:n
        ~agree:(fun () -> same_bindings (Gm.join m1 md) (Stdlib_gmap.join r1 rd))
        (fun () -> Gm.join m1 md)
        (fun () -> Stdlib_gmap.join r1 rd);
      tree_case ~rounds ~group:"parity" ~crdt:"gset" ~case:"x + one-key delta" ~size:n
        ~agree:(fun () -> same_elements (Gs.join s1 sd) (Stdlib_gset.union z1 zd))
        (fun () -> Gs.join s1 sd)
        (fun () -> Stdlib_gset.union z1 zd);
      tree_case ~rounds ~group:"parity" ~crdt:"gmap" ~case:"find x n" ~size:n
        ~agree:(fun () ->
          List.for_all (fun k -> Gm.find k m1 = Stdlib_gmap.find k r1) keys)
        (fun () -> List.fold_left (fun acc k -> acc + Gm.find k m1) 0 keys)
        (fun () -> List.fold_left (fun acc k -> acc + Stdlib_gmap.find k r1) 0 keys);
      tree_case ~rounds ~group:"parity" ~crdt:"gset" ~case:"mem x n" ~size:n
        ~agree:(fun () ->
          List.for_all (fun k -> Gs.mem k s2 = Stdlib_gset.mem k z2) keys)
        (fun () -> List.fold_left (fun acc k -> acc + Bool.to_int (Gs.mem k s2)) 0 keys)
        (fun () ->
          List.fold_left (fun acc k -> acc + Bool.to_int (Stdlib_gset.mem k z2)) 0 keys);
      tree_case ~rounds ~group:"parity" ~crdt:"gmap" ~case:"unshared join" ~size:n
        ~agree:(fun () -> same_bindings (Gm.join m1 m2) (Stdlib_gmap.join r1 r2))
        (fun () -> Gm.join m1 m2)
        (fun () -> Stdlib_gmap.join r1 r2);
      tree_case ~rounds ~group:"parity" ~crdt:"gset" ~case:"unshared join" ~size:n
        ~agree:(fun () -> same_elements (Gs.join s1 s2) (Stdlib_gset.union z1 z2))
        (fun () -> Gs.join s1 s2)
        (fun () -> Stdlib_gset.union z1 z2);
      tree_case ~rounds ~group:"parity" ~crdt:"gmap" ~case:"unshared delta" ~size:n
        ~agree:(fun () -> same_bindings (Gm.delta m1 m2) (Stdlib_gmap.delta r1 r2))
        (fun () -> Gm.delta m1 m2)
        (fun () -> Stdlib_gmap.delta r1 r2);
      tree_case ~rounds ~group:"parity" ~crdt:"gset" ~case:"unshared delta" ~size:n
        ~agree:(fun () -> same_elements (Gs.delta s1 s2) (Stdlib_gset.diff z1 z2))
        (fun () -> Gs.delta s1 s2)
        (fun () -> Stdlib_gset.diff z1 z2);
    ]
  in
  recent @ parity

(* -- reporting --------------------------------------------------------- *)

let ns v = Printf.sprintf "%.0f ns" v
let speedup g s = Printf.sprintf "%.1fx" (g /. s)

let json_escape_float v =
  (* JSON has no NaN/inf; the kernels never produce them, but keep the
     emitter total. *)
  if Float.is_finite v then Printf.sprintf "%.1f" v else "null"

let write_json path ~scale ~deltas ~trees =
  let oc = open_out path in
  let out fmt = Printf.fprintf oc fmt in
  out "{\n  \"bench\": \"delta_kernels\",\n  \"schema\": 1,\n";
  out "  \"host\": %s,\n" (Report.host_json ());
  out "  \"scale\": %S,\n" scale;
  out "  \"delta_kernels\": [\n";
  List.iteri
    (fun i r ->
      out
        "    {\"crdt\": %S, \"size\": %d, \"generic_ns\": %s, \
         \"structural_ns\": %s, \"speedup\": %s}%s\n"
        r.crdt r.size
        (json_escape_float r.generic_ns)
        (json_escape_float r.structural_ns)
        (json_escape_float (r.generic_ns /. r.structural_ns))
        (if i = List.length deltas - 1 then "" else ","))
    deltas;
  out "  ],\n  \"tree_kernels\": [\n";
  List.iteri
    (fun i r ->
      out
        "    {\"group\": %S, \"crdt\": %S, \"case\": %S, \"size\": %d, \
         \"lib_ns\": %s, \"stdlib_ns\": %s, \"stdlib_over_lib\": %s}%s\n"
        r.group r.tcrdt r.case r.tsize
        (json_escape_float r.lib_ns)
        (json_escape_float r.stdlib_ns)
        (Printf.sprintf "%.3f" (r.stdlib_ns /. r.lib_ns))
        (if i = List.length trees - 1 then "" else ","))
    trees;
  out "  ]\n}\n";
  close_out oc;
  Report.note "wrote %s" path

let run ?(quick = false) ?json_path () =
  let sizes = if quick then [ 256; 1024 ] else [ 256; 1024; 8192 ] in
  Report.section "delta"
    "structural Δ vs generic decomposition; lib/core trees vs Stdlib";
  let deltas = delta_kernels sizes in
  Report.table
    ~header:[ "Δ kernel"; "size"; "generic"; "structural"; "speedup" ]
    (List.map
       (fun r ->
         [
           r.crdt;
           string_of_int r.size;
           ns r.generic_ns;
           ns r.structural_ns;
           speedup r.generic_ns r.structural_ns;
         ])
       deltas);
  Report.note
    "generic = Delta.Make (materialize ⇓a, filter, join); structural = \
     DECOMPOSABLE.delta";
  let trees = tree_kernels ~rounds:(if quick then 9 else 15) in
  Report.table
    ~header:[ "tree kernel"; "crdt"; "size"; "lib/core"; "Stdlib"; "Stdlib/lib" ]
    (List.map
       (fun r ->
         [
           r.group ^ " " ^ r.case;
           r.tcrdt;
           string_of_int r.tsize;
           ns r.lib_ns;
           ns r.stdlib_ns;
           Printf.sprintf "%.2fx" (r.stdlib_ns /. r.lib_ns);
         ])
       trees);
  Report.note
    "recent = against x′, x plus four changes (shared subtrees); parity = \
     single-tree work at 1024; medians of interleaved rounds";
  match json_path with
  | None -> ()
  | Some path ->
      write_json path
        ~scale:(if quick then "quick" else "default")
        ~deltas ~trees
