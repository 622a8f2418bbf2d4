(* Structured trace layer.  See trace.mli for the contract; the one
   design rule here is that the hot path (a sink call per message) must
   not allocate, which is why a sink is a record of closures over plain
   labeled ints. *)

let json_escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

type sink = {
  detailed : bool;
  meta : string -> unit;
  tick : node:int -> round:int -> unit;
  send :
    src:int ->
    dest:int ->
    round:int ->
    weight:int ->
    metadata:int ->
    payload_bytes:int ->
    metadata_bytes:int ->
    wire_bytes:int ->
    unit;
  recv :
    node:int ->
    src:int ->
    round:int ->
    weight:int ->
    metadata:int ->
    payload_bytes:int ->
    metadata_bytes:int ->
    wire_bytes:int ->
    unit;
  deliver : node:int -> src:int -> round:int -> unit;
  drop : node:int -> src:int -> round:int -> unit;
  hold : node:int -> src:int -> round:int -> unit;
  cut : node:int -> src:int -> round:int -> unit;
  crash : node:int -> round:int -> unit;
  recover : node:int -> round:int -> unit;
  finish : node:int -> round:int -> unit;
}

let null =
  {
    detailed = false;
    meta = (fun _ -> ());
    tick = (fun ~node:_ ~round:_ -> ());
    send =
      (fun ~src:_ ~dest:_ ~round:_ ~weight:_ ~metadata:_ ~payload_bytes:_
           ~metadata_bytes:_ ~wire_bytes:_ -> ());
    recv =
      (fun ~node:_ ~src:_ ~round:_ ~weight:_ ~metadata:_ ~payload_bytes:_
           ~metadata_bytes:_ ~wire_bytes:_ -> ());
    deliver = (fun ~node:_ ~src:_ ~round:_ -> ());
    drop = (fun ~node:_ ~src:_ ~round:_ -> ());
    hold = (fun ~node:_ ~src:_ ~round:_ -> ());
    cut = (fun ~node:_ ~src:_ ~round:_ -> ());
    crash = (fun ~node:_ ~round:_ -> ());
    recover = (fun ~node:_ ~round:_ -> ());
    finish = (fun ~node:_ ~round:_ -> ());
  }

type counters = {
  mutable sent : int;
  mutable delivered : int;
  mutable messages : int;
  mutable payload : int;
  mutable metadata : int;
  mutable payload_bytes : int;
  mutable metadata_bytes : int;
  mutable wire_bytes : int;
  mutable ops_applied : int;
  mutable dropped : int;
  mutable held : int;
  mutable partitioned : int;
  mutable memory_weight : int;
  mutable memory_bytes : int;
  mutable metadata_memory_bytes : int;
  mutable sync_rounds : int;
  mutable digest_bytes : int;
  mutable last_sync_round : int;
      (* internal: last round already counted in [sync_rounds]. *)
}

let make_counters () =
  {
    sent = 0;
    delivered = 0;
    messages = 0;
    payload = 0;
    metadata = 0;
    payload_bytes = 0;
    metadata_bytes = 0;
    wire_bytes = 0;
    ops_applied = 0;
    dropped = 0;
    held = 0;
    partitioned = 0;
    memory_weight = 0;
    memory_bytes = 0;
    metadata_memory_bytes = 0;
    sync_rounds = 0;
    digest_bytes = 0;
    last_sync_round = -1;
  }

let reset_counters c =
  c.sent <- 0;
  c.delivered <- 0;
  c.messages <- 0;
  c.payload <- 0;
  c.metadata <- 0;
  c.payload_bytes <- 0;
  c.metadata_bytes <- 0;
  c.wire_bytes <- 0;
  c.ops_applied <- 0;
  c.dropped <- 0;
  c.held <- 0;
  c.partitioned <- 0;
  c.memory_weight <- 0;
  c.memory_bytes <- 0;
  c.metadata_memory_bytes <- 0;
  c.sync_rounds <- 0;
  c.digest_bytes <- 0;
  c.last_sync_round <- -1

let sum cs =
  let acc = make_counters () in
  Array.iter
    (fun c ->
      acc.sent <- acc.sent + c.sent;
      acc.delivered <- acc.delivered + c.delivered;
      acc.messages <- acc.messages + c.messages;
      acc.payload <- acc.payload + c.payload;
      acc.metadata <- acc.metadata + c.metadata;
      acc.payload_bytes <- acc.payload_bytes + c.payload_bytes;
      acc.metadata_bytes <- acc.metadata_bytes + c.metadata_bytes;
      acc.wire_bytes <- acc.wire_bytes + c.wire_bytes;
      acc.ops_applied <- acc.ops_applied + c.ops_applied;
      acc.dropped <- acc.dropped + c.dropped;
      acc.held <- acc.held + c.held;
      acc.partitioned <- acc.partitioned + c.partitioned;
      acc.memory_weight <- acc.memory_weight + c.memory_weight;
      acc.memory_bytes <- acc.memory_bytes + c.memory_bytes;
      acc.metadata_memory_bytes <-
        acc.metadata_memory_bytes + c.metadata_memory_bytes;
      acc.sync_rounds <- acc.sync_rounds + c.sync_rounds;
      acc.digest_bytes <- acc.digest_bytes + c.digest_bytes;
      acc.last_sync_round <- max acc.last_sync_round c.last_sync_round)
    cs;
  acc

let counting c =
  {
    null with
    send =
      (fun ~src:_ ~dest:_ ~round:_ ~weight:_ ~metadata:_ ~payload_bytes:_
           ~metadata_bytes:_ ~wire_bytes:_ -> c.sent <- c.sent + 1);
    recv =
      (fun ~node:_ ~src:_ ~round ~weight ~metadata ~payload_bytes
           ~metadata_bytes ~wire_bytes ->
        c.messages <- c.messages + 1;
        c.payload <- c.payload + weight;
        c.metadata <- c.metadata + metadata;
        c.payload_bytes <- c.payload_bytes + payload_bytes;
        c.metadata_bytes <- c.metadata_bytes + metadata_bytes;
        c.wire_bytes <- c.wire_bytes + wire_bytes;
        (* Pure control traffic — digests, sync requests, IBLT cells,
           acks: metadata with no payload.  Tally its bytes separately
           and count each round that carries any of it as a sync
           round. *)
        if weight = 0 && metadata > 0 then begin
          c.digest_bytes <-
            c.digest_bytes
            + (if wire_bytes > 0 then wire_bytes
               else payload_bytes + metadata_bytes);
          if round <> c.last_sync_round then begin
            c.sync_rounds <- c.sync_rounds + 1;
            c.last_sync_round <- round
          end
        end);
    deliver = (fun ~node:_ ~src:_ ~round:_ -> c.delivered <- c.delivered + 1);
    drop = (fun ~node:_ ~src:_ ~round:_ -> c.dropped <- c.dropped + 1);
    hold = (fun ~node:_ ~src:_ ~round:_ -> c.held <- c.held + 1);
    cut = (fun ~node:_ ~src:_ ~round:_ -> c.partitioned <- c.partitioned + 1);
  }

let tee a b =
  {
    detailed = a.detailed || b.detailed;
    meta = (fun s -> a.meta s; b.meta s);
    tick = (fun ~node ~round -> a.tick ~node ~round; b.tick ~node ~round);
    send =
      (fun ~src ~dest ~round ~weight ~metadata ~payload_bytes ~metadata_bytes
           ~wire_bytes ->
        a.send ~src ~dest ~round ~weight ~metadata ~payload_bytes
          ~metadata_bytes ~wire_bytes;
        b.send ~src ~dest ~round ~weight ~metadata ~payload_bytes
          ~metadata_bytes ~wire_bytes);
    recv =
      (fun ~node ~src ~round ~weight ~metadata ~payload_bytes ~metadata_bytes
           ~wire_bytes ->
        a.recv ~node ~src ~round ~weight ~metadata ~payload_bytes
          ~metadata_bytes ~wire_bytes;
        b.recv ~node ~src ~round ~weight ~metadata ~payload_bytes
          ~metadata_bytes ~wire_bytes);
    deliver =
      (fun ~node ~src ~round ->
        a.deliver ~node ~src ~round;
        b.deliver ~node ~src ~round);
    drop =
      (fun ~node ~src ~round ->
        a.drop ~node ~src ~round;
        b.drop ~node ~src ~round);
    hold =
      (fun ~node ~src ~round ->
        a.hold ~node ~src ~round;
        b.hold ~node ~src ~round);
    cut =
      (fun ~node ~src ~round ->
        a.cut ~node ~src ~round;
        b.cut ~node ~src ~round);
    crash = (fun ~node ~round -> a.crash ~node ~round; b.crash ~node ~round);
    recover =
      (fun ~node ~round -> a.recover ~node ~round; b.recover ~node ~round);
    finish =
      (fun ~node ~round -> a.finish ~node ~round; b.finish ~node ~round);
  }

(* Each line is written straight from the sink's arguments. *)
let jsonl oc =
  let line fmt = Printf.kfprintf (fun oc -> output_char oc '\n') oc fmt in
  let at ev ~node ~round =
    line {|{"ev":"%s","node":%d,"round":%d}|} ev node round
  in
  let link ev ~node ~src ~round =
    line {|{"ev":"%s","node":%d,"src":%d,"round":%d}|} ev node src round
  in
  {
    detailed = true;
    meta =
      (fun note ->
        line {|{"ev":"meta","note":"%s"}|} (json_escape note);
        flush oc);
    tick = at "tick";
    send =
      (fun ~src ~dest ~round ~weight ~metadata ~payload_bytes ~metadata_bytes
           ~wire_bytes ->
        line
          {|{"ev":"send","src":%d,"dest":%d,"round":%d,"weight":%d,"metadata":%d,"payload_bytes":%d,"metadata_bytes":%d,"wire_bytes":%d}|}
          src dest round weight metadata payload_bytes metadata_bytes
          wire_bytes);
    recv =
      (fun ~node ~src ~round ~weight ~metadata ~payload_bytes ~metadata_bytes
           ~wire_bytes ->
        line
          {|{"ev":"recv","node":%d,"src":%d,"round":%d,"weight":%d,"metadata":%d,"payload_bytes":%d,"metadata_bytes":%d,"wire_bytes":%d}|}
          node src round weight metadata payload_bytes metadata_bytes
          wire_bytes);
    deliver = link "deliver";
    drop = link "drop";
    hold = link "hold";
    cut = link "cut";
    crash = at "crash";
    recover = at "recover";
    finish =
      (fun ~node ~round ->
        at "done" ~node ~round;
        flush oc);
  }
