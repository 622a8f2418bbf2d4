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

(** A feed accumulates stream chunks and yields complete frames.  Any
    error is sticky: a framing violation means the stream is garbage
    from that point on, so the connection should be dropped. *)
type feed = {
  mutable pending : string;
  max_payload : int;
  mutable failed : Codec.error option;
}

let feed ?(max_payload = default_max_payload) () =
  { pending = ""; max_payload; failed = None }

let push t chunk =
  if t.failed = None && String.length chunk > 0 then
    t.pending <-
      (if String.length t.pending = 0 then chunk else t.pending ^ chunk)

let pending_bytes t = String.length t.pending

(** [pop t] is [Ok (Some (kind, payload))] when a complete frame is
    buffered, [Ok None] when more input is needed, and [Error _] when
    the stream is not a valid frame sequence (sticky). *)
let pop t =
  match t.failed with
  | Some e -> Error e
  | None -> (
      let fail e =
        t.failed <- Some e;
        Error e
      in
      let r = Codec.reader t.pending in
      if Codec.remaining r < 3 then Ok None
      else
        let b0 = Char.code t.pending.[0] in
        let b1 = Char.code t.pending.[1] in
        if b0 <> magic then
          fail (Codec.Malformed (Printf.sprintf "bad frame magic 0x%02x" b0))
        else if b1 <> version then
          fail
            (Codec.Malformed
               (Printf.sprintf "unsupported wire version %d (expected %d)" b1
                  version))
        else begin
          let kind = Char.code t.pending.[2] in
          r.Codec.pos <- 3;
          match Codec.read_varint r with
          | Error Codec.Truncated -> Ok None (* length prefix incomplete *)
          | Error e -> fail e
          | Ok len ->
              if len < 0 || len > t.max_payload then
                fail
                  (Codec.Malformed
                     (Printf.sprintf "frame payload length %d exceeds cap" len))
              else if Codec.remaining r < len then Ok None
              else begin
                let payload = String.sub t.pending r.Codec.pos len in
                let consumed = r.Codec.pos + len in
                t.pending <-
                  String.sub t.pending consumed
                    (String.length t.pending - consumed);
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
      if String.length t.pending = 0 then Ok (kind, payload)
      else Error (Codec.Malformed "trailing bytes after frame")
