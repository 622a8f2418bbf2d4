(** Versioned length-prefixed framing.

    Every frame on the wire is

    {v
      +-------+---------+------+----------------+---------+
      | magic | version | kind | payload length | payload |
      | 0xC5  | 1 byte  | 1 B  | varint         | n bytes |
      +-------+---------+------+----------------+---------+
    v}

    The magic byte rejects cross-talk from non-crdtsync peers early;
    the version byte is bumped on any incompatible payload-encoding
    change (decoders reject versions they do not know rather than
    guessing); the kind byte dispatches at the runtime layer (e.g.
    handshake vs. protocol message) without decoding the payload.
    Payload lengths are capped ({!default_max_payload}) so a corrupt
    or hostile length prefix cannot trigger a giant allocation. *)

let magic = 0xC5
let version = 1

(** 16 MiB — far above any message the protocols emit, far below
    anything that could hurt. *)
let default_max_payload = 16 * 1024 * 1024

(** Exact on-the-wire size of a frame holding [payload_len] bytes. *)
let framed_size ~payload_len = 3 + Codec.varint_size payload_len + payload_len

(** Exact on-the-wire size of a frame whose payload is [codec]-encoded
    [v]: what every protocol's [message_wire_bytes] reports. *)
let value_size codec v = framed_size ~payload_len:(Codec.encoded_size codec v)

let add_header buf ~kind ~payload_len =
  if kind < 0 || kind > 0xff then invalid_arg "Frame.encode: bad kind";
  Buffer.add_char buf (Char.chr magic);
  Buffer.add_char buf (Char.chr version);
  Buffer.add_char buf (Char.chr kind);
  Codec.write_varint buf payload_len

(** Append a complete frame holding [payload] to [buf].  The batched
    send path coalesces every frame bound for one peer into a single
    outbound buffer with this — the bytes are exactly what {!encode}
    produces, only their destination differs. *)
let encode_into buf ~kind payload =
  add_header buf ~kind ~payload_len:(String.length payload);
  Buffer.add_string buf payload

(** Append a frame whose payload is [codec]-encoded [v], with zero
    intermediate strings: the payload is staged in [scratch] (cleared
    first; ownership stays with the caller, who reuses it across
    calls — the encode-buffer-reuse half of the batched path) only
    because the varint length prefix must precede bytes whose count is
    not known until they are written. *)
let encode_value_into ~scratch buf ~kind codec v =
  Buffer.clear scratch;
  Codec.encode_into scratch codec v;
  add_header buf ~kind ~payload_len:(Buffer.length scratch);
  Buffer.add_buffer buf scratch

let encode ~kind payload =
  let buf = Buffer.create (framed_size ~payload_len:(String.length payload)) in
  encode_into buf ~kind payload;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Incremental decoding (for byte streams)                             *)

(** A feed accumulates stream bytes and yields complete frames.  It is
    the read-side twin of [Conn]'s outbound queue: the unread bytes are
    the window [[pos, len)] of one growable buffer.  {!push} appends a
    chunk and {!refill} reads straight into the window; {!pop} parses
    the frame at [pos] and only advances it, so a frame costs its own
    bytes and nothing of what follows it.  Room is made by sliding the
    unread tail to the front before growing, and a drained window
    restarts at 0.  A caller that pops every complete frame before
    adding more (as [Conn] and the store do) therefore keeps at most
    one partial frame plus the chunk being added: the buffer stays
    within twice the largest frame plus one chunk, whatever the
    stream's length.  Any error is sticky: a framing violation means
    the stream is garbage from that point on, so the connection should
    be dropped. *)
type feed = {
  mutable buf : Bytes.t;
  mutable pos : int;  (** first unread byte. *)
  mutable len : int;  (** end of the buffered bytes. *)
  max_payload : int;
  mutable failed : Codec.error option;
}

let feed ?(max_payload = default_max_payload) () =
  { buf = Bytes.empty; pos = 0; len = 0; max_payload; failed = None }

(* Make room for [extra] more bytes at [len]: move the unread window to
   the front of the buffer, or of a doubled one if it would still be
   short.  Either copies only the unread bytes. *)
let reserve t extra =
  if t.len + extra > Bytes.length t.buf then begin
    let live = t.len - t.pos in
    if live + extra > Bytes.length t.buf then begin
      let cap = ref (max 4096 (Bytes.length t.buf)) in
      while live + extra > !cap do
        cap := !cap * 2
      done;
      let grown = Bytes.create !cap in
      Bytes.blit t.buf t.pos grown 0 live;
      t.buf <- grown
    end
    else Bytes.blit t.buf t.pos t.buf 0 live;
    t.pos <- 0;
    t.len <- live
  end

let push t chunk =
  let n = String.length chunk in
  if t.failed = None && n > 0 then begin
    reserve t n;
    Bytes.blit_string chunk 0 t.buf t.len n;
    t.len <- t.len + n
  end

(** [refill t ~max read] calls [read buf off n] once, with [n <= max],
    to append up to [n] bytes at [buf.[off]] — [Unix.read fd] fits —
    and returns what it returned: the byte count, 0 at end of input.
    An exception from [read] propagates and leaves the buffered bytes
    as they were.  After a framing error the bytes read are dropped,
    as {!push} drops its chunks. *)
let refill t ~max read =
  reserve t max;
  let n = read t.buf t.len max in
  if t.failed = None then t.len <- t.len + n;
  n

let pending_bytes t = t.len - t.pos

let fail t e =
  t.failed <- Some e;
  Error e

(** [pop t] is [Ok (Some (kind, payload))] when a complete frame is
    buffered, [Ok None] when more input is needed, and [Error _] when
    the stream is not a valid frame sequence (sticky). *)
let pop t =
  match t.failed with
  | Some e -> Error e
  | None -> (
      if t.len - t.pos < 3 then Ok None
      else
        let b0 = Char.code (Bytes.get t.buf t.pos) in
        let b1 = Char.code (Bytes.get t.buf (t.pos + 1)) in
        if b0 <> magic then
          fail t (Codec.Malformed (Printf.sprintf "bad frame magic 0x%02x" b0))
        else if b1 <> version then
          fail t
            (Codec.Malformed
               (Printf.sprintf "unsupported wire version %d (expected %d)" b1
                  version))
        else begin
          let kind = Char.code (Bytes.get t.buf (t.pos + 2)) in
          (* The reader only looks at the window while [t] is not
             written, so it may share the buffer's bytes. *)
          let r =
            Codec.reader ~pos:(t.pos + 3) ~len:(t.len - t.pos - 3)
              (Bytes.unsafe_to_string t.buf)
          in
          match Codec.read_varint r with
          | Error Codec.Truncated -> Ok None (* length prefix incomplete *)
          | Error e -> fail t e
          | Ok len ->
              if len < 0 || len > t.max_payload then
                fail t
                  (Codec.Malformed
                     (Printf.sprintf "frame payload length %d exceeds cap" len))
              else if Codec.remaining r < len then Ok None
              else begin
                let payload = Bytes.sub_string t.buf r.Codec.pos len in
                t.pos <- r.Codec.pos + len;
                if t.pos = t.len then begin
                  t.pos <- 0;
                  t.len <- 0
                end;
                Ok (Some (kind, payload))
              end
        end)

(** Decode a single complete frame from a string (no partial input). *)
let decode s =
  let t = feed () in
  push t s;
  match pop t with
  | Error _ as e -> e
  | Ok None -> Error Codec.Truncated
  | Ok (Some (kind, payload)) ->
      if pending_bytes t = 0 then Ok (kind, payload)
      else Error (Codec.Malformed "trailing bytes after frame")
