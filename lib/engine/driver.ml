(* Transport-agnostic replica state machine; see driver.mli.

   Accounting discipline (the single definition both drivers inherit):
   delivery costs are computed on every [deliver] — the counting sink
   needs them — while send costs are computed only for [detailed] sinks,
   so the default counting/null paths never size outbound messages. *)

module Make (P : Crdt_proto.Protocol_intf.PROTOCOL) = struct
  type t = {
    id : int;
    neighbors : int list;
    total : int;
    sink : Trace.sink;
    exact : bool;
    changed : (P.crdt -> P.crdt -> bool) option;
    mutable node : P.node;
    mutable down : bool;
    mutable dirty : bool;
    mutable store_dirty : bool;
    mutable persist : (P.crdt -> unit) option;
    mutable ops_applied : int;
  }

  let create ?(sink = Trace.null) ?(exact_bytes = true) ?changed ~id
      ~neighbors ~total () =
    {
      id;
      neighbors;
      total;
      sink;
      exact = exact_bytes;
      changed;
      node = P.init ~id ~neighbors ~total;
      down = false;
      dirty = false;
      store_dirty = false;
      persist = None;
      ops_applied = 0;
    }

  let state t = P.state t.node
  let down t = t.down
  let dirty t = t.dirty
  let clear_dirty t = t.dirty <- false

  let apply t ops =
    if t.down then 0
    else begin
      let n = ref 0 in
      List.iter
        (fun op ->
          t.node <- P.local_update t.node op;
          incr n)
        ops;
      if !n > 0 then begin
        t.dirty <- true;
        t.store_dirty <- true
      end;
      t.ops_applied <- t.ops_applied + !n;
      !n
    end

  let ops_applied t = t.ops_applied

  let send_event t ~round ~dest msg =
    let s = t.sink in
    if s.detailed then
      s.send ~src:t.id ~dest ~round ~weight:(P.payload_weight msg)
        ~metadata:(P.metadata_weight msg)
        ~payload_bytes:(P.payload_bytes msg)
        ~metadata_bytes:(P.metadata_bytes msg)
        ~wire_bytes:(if t.exact then P.message_wire_bytes msg else 0)
    else
      s.send ~src:t.id ~dest ~round ~weight:0 ~metadata:0 ~payload_bytes:0
        ~metadata_bytes:0 ~wire_bytes:0

  let tick t ~round ~emit =
    if not t.down then begin
      t.sink.tick ~node:t.id ~round;
      let node, msgs = P.tick t.node in
      t.node <- node;
      List.iter
        (fun (dest, msg) ->
          send_event t ~round ~dest msg;
          emit ~dest msg)
        msgs
    end

  let deliver t ~round ~src ?(copies = 1) ?wire_bytes ~emit msg =
    let wire_bytes =
      if not t.exact then 0
      else
        match wire_bytes with
        | Some n -> n
        | None -> P.message_wire_bytes msg
    in
    t.sink.recv ~node:t.id ~src ~round ~weight:(P.payload_weight msg)
      ~metadata:(P.metadata_weight msg)
      ~payload_bytes:(P.payload_bytes msg)
      ~metadata_bytes:(P.metadata_bytes msg)
      ~wire_bytes;
    for _ = 1 to copies do
      t.sink.deliver ~node:t.id ~src ~round;
      let prev = t.node in
      let node, replies = P.handle prev ~src msg in
      t.node <- node;
      (match t.changed with
      | Some changed ->
          if
            not (t.dirty && t.store_dirty)
            && changed (P.state prev) (P.state node)
          then begin
            t.dirty <- true;
            t.store_dirty <- true
          end
      | None ->
          (* No comparator: persistence dedupes in the sink instead
             (the delta against the last persisted image is bottom when
             nothing inflated). *)
          t.store_dirty <- true);
      List.iter
        (fun (dest, m) ->
          send_event t ~round ~dest m;
          emit ~dest m)
        replies
    done

  let crash t ~round =
    t.down <- true;
    t.node <- P.crash t.node;
    t.sink.crash ~node:t.id ~round

  let recover t ~round =
    t.down <- false;
    t.node <- P.recover t.node;
    t.dirty <- true;
    t.store_dirty <- true;
    t.sink.recover ~node:t.id ~round

  (* ---------------------------------------------------------------- *)
  (* Persistence seam.  The transport decides *when* durability points
     happen (once per tick / round), the sink decides *what* writing
     means (delta append, checkpoint roll — lib/store via bin/, or an
     in-memory probe in tests); the driver only tracks whether the
     state may have inflated since the last sync. *)

  let set_persist t f = t.persist <- Some f

  let sync_store t =
    match t.persist with
    | Some f when t.store_dirty ->
        t.store_dirty <- false;
        f (P.state t.node)
    | _ -> ()

  let restart_from t s =
    t.node <- P.load (P.init ~id:t.id ~neighbors:t.neighbors ~total:t.total) s;
    t.down <- false;
    t.dirty <- true;
    t.store_dirty <- true

  let finish t ~round = t.sink.finish ~node:t.id ~round

  let memory t = P.memory t.node
end
