(* Micro-kernels for the two hot paths the structural-delta work
   optimizes:

   1. Δ(a,b) itself — the generic decompose-then-filter oracle
      (Delta.Make) against the structural DECOMPOSABLE.delta, across
      GCounter / GSet / GMap at several state sizes;
   2. the δ-buffer — the seed's list-buffer store/tick loop (append per
      store, fold-the-buffer per neighbor) against the incremental
      per-origin groups of Delta_sync, at several operations-per-round.

   Results print as tables and, with --json, land in
   BENCH_delta_kernels.json so the perf trajectory is machine-readable
   across PRs. *)

open Crdt_core

let rng = Random.State.make [| 2024 |]

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

(* -- δ-buffer kernels -------------------------------------------------- *)

(* The seed's buffer representation, preserved here as the baseline: a
   seq-ordered entry list with an O(|B|) append per store and one fold
   over the whole buffer per neighbor at tick. *)
module Classic_buffer = struct
  type entry = { delta : Gs.t; origin : int }
  type node = { x : Gs.t; buffer : entry list }

  let init = { x = Gs.bottom; buffer = [] }

  let store n delta origin =
    { x = Gs.join n.x delta; buffer = n.buffer @ [ { delta; origin } ] }

  let local_update self rid n e =
    let d = Gs.delta_mutate e rid n.x in
    if Gs.is_bottom d then n else store n d self

  let tick neighbors n =
    let msgs =
      List.filter_map
        (fun j ->
          let g =
            List.fold_left
              (fun acc e ->
                if e.origin = j then acc else Gs.join acc e.delta)
              Gs.bottom n.buffer
          in
          if Gs.is_bottom g then None else Some (j, g))
        neighbors
    in
    ({ n with buffer = [] }, msgs)
end

module P = Crdt_proto.Delta_sync.Make (Gs) (Crdt_proto.Delta_sync.Bp_rr_config)

let neighbors = [ 1; 2; 3 ]
let rounds = 8

(* One measured unit: [rounds] rounds of [ops] fresh local updates
   followed by a tick whose messages are discarded (the kernel isolates
   the sender side: store cost + δ-group assembly). *)
let classic_loop ops () =
  let rid = Replica_id.of_int 0 in
  let n = ref Classic_buffer.init in
  for r = 0 to rounds - 1 do
    for i = 0 to ops - 1 do
      n := Classic_buffer.local_update 0 rid !n ((r * ops) + i)
    done;
    let n', msgs = Classic_buffer.tick neighbors !n in
    ignore (Sys.opaque_identity msgs);
    n := n'
  done;
  Gs.cardinal !n.Classic_buffer.x

let incremental_loop ops () =
  let n = ref (P.init ~id:0 ~neighbors ~total:4) in
  for r = 0 to rounds - 1 do
    for i = 0 to ops - 1 do
      n := P.local_update !n ((r * ops) + i)
    done;
    let n', msgs = P.tick !n in
    ignore (Sys.opaque_identity msgs);
    n := n'
  done;
  Gs.cardinal (P.state !n)

type buffer_row = { ops : int; classic_ns : float; incremental_ns : float }

let buffer_kernels ops_list =
  List.map
    (fun ops ->
      let per_op total = total /. float_of_int (rounds * ops) in
      {
        ops;
        classic_ns = per_op (ns_per_run (classic_loop ops));
        incremental_ns = per_op (ns_per_run (incremental_loop ops));
      })
    ops_list

(* -- reporting --------------------------------------------------------- *)

let ns v = Printf.sprintf "%.0f ns" v
let speedup g s = Printf.sprintf "%.1fx" (g /. s)

let json_escape_float v =
  (* JSON has no NaN/inf; the kernels never produce them, but keep the
     emitter total. *)
  if Float.is_finite v then Printf.sprintf "%.1f" v else "null"

let write_json path ~scale ~deltas ~buffers =
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
  out "  ],\n  \"buffer_loop\": [\n";
  List.iteri
    (fun i r ->
      out
        "    {\"ops_per_round\": %d, \"classic_ns_per_op\": %s, \
         \"incremental_ns_per_op\": %s, \"speedup\": %s}%s\n"
        r.ops
        (json_escape_float r.classic_ns)
        (json_escape_float r.incremental_ns)
        (json_escape_float (r.classic_ns /. r.incremental_ns))
        (if i = List.length buffers - 1 then "" else ","))
    buffers;
  out "  ]\n}\n";
  close_out oc;
  Report.note "wrote %s" path

let run ?(quick = false) ?json_path () =
  ignore rng;
  let sizes = if quick then [ 256; 1024 ] else [ 256; 1024; 8192 ] in
  let ops_list = if quick then [ 64; 256; 1024 ] else [ 64; 256; 1024; 4096 ] in
  Report.section "delta"
    "structural Δ vs generic decomposition; incremental vs list δ-buffers";
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
  let buffers = buffer_kernels ops_list in
  Report.table
    ~header:
      [ "store+tick loop"; "ops/round"; "classic"; "incremental"; "speedup" ]
    (List.map
       (fun r ->
         [
           "delta-bp+rr";
           string_of_int r.ops;
           ns r.classic_ns;
           ns r.incremental_ns;
           speedup r.classic_ns r.incremental_ns;
         ])
       buffers);
  Report.note
    "per-op cost of a round of local updates + one tick to %d neighbors; \
     classic = list append per store + whole-buffer fold per neighbor"
    (List.length neighbors);
  match json_path with
  | None -> ()
  | Some path ->
      write_json path
        ~scale:(if quick then "quick" else "default")
        ~deltas ~buffers
