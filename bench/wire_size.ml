(* Exact wire sizes of the synchronization protocols.

   Replays the Table I micro-workloads (GSet and GMap, tree and partial
   mesh) under state-based, classic delta and BP+RR delta
   synchronization with exact byte accounting: every delivered message
   is encoded by the lib/wire codecs and the framed size recorded, so
   the figures are what a real deployment would put on the sockets —
   not the paper's 20 B/8 B estimate model (also reported, for the
   estimate-vs-exact ratio the size law in test_wire bounds).

   The run fails (non-zero exit through an exception) if exact bytes
   violate the paper's headline ordering

       delta BP+RR <= delta classic <= state-based

   on any cell, so the cross-PR trajectory cannot silently record a
   regression of the core result.  With --json the table also lands in
   BENCH_wire_size.json. *)

open Crdt_core
open Crdt_sim
module Workload = Crdt_engine.Workload

type row = {
  crdt : string;
  topo : string;
  nodes : int;
  protocol : string;
  rounds : int;
  wire_bytes : int;  (** exact framed bytes, measured rounds + tail. *)
  estimate_bytes : int;  (** the byte-model figure over the same run. *)
  messages : int;
  converged : bool;
}

module Sweep (C : Crdt_proto.Protocol_intf.CRDT) = struct
  module type PROTO =
    Crdt_proto.Protocol_intf.PROTOCOL
      with type crdt = C.t
       and type op = C.op

  let proto name : (module PROTO) =
    Crdt_engine.Registry.instantiate
      (Crdt_engine.Registry.find_protocol name)
      (module C : Crdt_proto.Protocol_intf.CRDT
        with type t = C.t
         and type op = C.op)

  let measure (module P : PROTO) ~crdt ~topology ~rounds ~gen_ops =
    let module R = Runner.Make (P) in
    let res =
      R.run ~bytes:Metrics.Exact ~equal:C.equal ~topology ~rounds
        ~ops:(fun ~round ~node _ -> gen_ops ~round ~node)
        ()
    in
    let s = R.full_summary res in
    {
      crdt;
      topo = Topology.name topology;
      nodes = Topology.size topology;
      protocol = P.protocol_name;
      rounds;
      wire_bytes = s.Metrics.totals.wire_bytes;
      estimate_bytes = Metrics.total_transmission_bytes s;
      messages = s.Metrics.totals.messages;
      converged = res.R.converged;
    }

  let measure_all ~crdt ~topology ~rounds ~gen_ops =
    List.map
      (fun name -> measure (proto name) ~crdt ~topology ~rounds ~gen_ops)
      [ "state-based"; "delta-classic"; "delta-bp+rr" ]
end

module S_gset = Sweep (Gset.Of_int)
module S_gmap = Sweep (Gmap.Versioned)

let rows ~nodes ~rounds =
  List.concat_map
    (fun topology ->
      S_gset.measure_all ~crdt:"gset" ~topology ~rounds
        ~gen_ops:(fun ~round ~node -> Workload.gset ~nodes ~round ~node ())
      @ S_gmap.measure_all ~crdt:"gmap" ~topology ~rounds
          ~gen_ops:(fun ~round ~node ->
            Workload.gmap ~total_keys:1000 ~k:10 ~nodes ~round ~node ()))
    [ Topology.tree nodes; Topology.partial_mesh nodes ]

(* The paper's headline ordering, checked on exact bytes per cell. *)
let check_ordering rows =
  let cells =
    List.sort_uniq compare (List.map (fun r -> (r.crdt, r.topo)) rows)
  in
  List.filter_map
    (fun (crdt, topo) ->
      let find proto =
        List.find
          (fun r -> r.crdt = crdt && r.topo = topo && r.protocol = proto)
          rows
      in
      let st = find "state-based"
      and cl = find "delta-classic"
      and bp = find "delta-bp+rr" in
      if bp.wire_bytes <= cl.wire_bytes && cl.wire_bytes <= st.wire_bytes
      then None
      else
        Some
          (Printf.sprintf
             "%s/%s: bp+rr=%d classic=%d state=%d violates bp+rr <= classic \
              <= state"
             crdt topo bp.wire_bytes cl.wire_bytes st.wire_bytes))
    cells

let print_rows rows =
  Report.table
    ~header:
      [
        "crdt/topo"; "n"; "protocol"; "wire bytes"; "estimate bytes";
        "est/exact"; "msgs";
      ]
    (List.map
       (fun r ->
         [
           Printf.sprintf "%s/%s%s" r.crdt r.topo
             (if r.converged then "" else "!");
           string_of_int r.nodes;
           r.protocol;
           string_of_int r.wire_bytes;
           string_of_int r.estimate_bytes;
           Printf.sprintf "%.2f"
             (float_of_int r.estimate_bytes /. float_of_int (max 1 r.wire_bytes));
           string_of_int r.messages;
         ])
       rows)

let write_json path ~scale rows =
  let oc = open_out path in
  let out fmt = Printf.fprintf oc fmt in
  out "{\n  \"bench\": \"wire_size\",\n  \"schema\": 1,\n";
  out "  \"host\": %s,\n" (Report.host_json ());
  out "  \"scale\": %S,\n" scale;
  out "  \"accounting\": \"exact framed wire bytes (lib/wire codecs)\",\n";
  out "  \"sweep\": [\n";
  List.iteri
    (fun i r ->
      out
        "    {\"crdt\": %S, \"topology\": %S, \"nodes\": %d, \"protocol\": \
         %S, \"rounds\": %d,\n\
        \     \"wire_bytes\": %d, \"estimate_bytes\": %d, \"messages\": %d, \
         \"converged\": %b}%s\n"
        r.crdt r.topo r.nodes r.protocol r.rounds r.wire_bytes
        r.estimate_bytes r.messages r.converged
        (if i = List.length rows - 1 then "" else ","))
    rows;
  out "  ]\n}\n";
  close_out oc;
  Report.note "wrote %s" path

let run ?(quick = false) ?json_path () =
  let nodes = if quick then 8 else 15 in
  let rounds = if quick then 10 else 30 in
  Report.section "wire_size"
    "exact encoded wire bytes per protocol (state vs classic vs BP+RR)";
  let rows = rows ~nodes ~rounds in
  print_rows rows;
  (match json_path with
  | None -> ()
  | Some path ->
      write_json path ~scale:(if quick then "quick" else "default") rows);
  match check_ordering rows with
  | [] -> Report.note "ordering bp+rr <= classic <= state-based holds on all cells"
  | violations ->
      List.iter (fun v -> Report.note "ORDERING VIOLATION: %s" v) violations;
      failwith "wire_size: exact-byte protocol ordering violated"
