(* Append-only segment log with checkpoints; see store.mli and
   DESIGN.md §11 for the format contract.

   Layout per record (reusing the wire framing, so one reader —
   {!Crdt_wire.Frame.feed} — serves both sockets and disk):

     magic 0xC5 | version | kind | varint len | crc32(body) BE 4B | body

   Kind bytes live in a store-local namespace disjoint from the socket
   runtime's (0–4), so a file can never be confused for a socket
   stream dump — and vice versa. *)

module Frame = Crdt_wire.Frame
module Codec = Crdt_wire.Codec

let kind_delta = 0x10
let kind_checkpoint = 0x11
let kind_seal = 0x12
let default_segment_bytes = 4 * 1024 * 1024

type fsync_policy = Always | Interval of float | Never

let fsync_policy_of_string s =
  match String.lowercase_ascii s with
  | "always" -> Ok Always
  | "never" -> Ok Never
  | "interval" -> Ok (Interval 0.05)
  | s when String.length s > 9 && String.sub s 0 9 = "interval:" -> (
      match float_of_string_opt (String.sub s 9 (String.length s - 9)) with
      | Some f when f > 0. -> Ok (Interval f)
      | _ -> Error (Printf.sprintf "bad fsync interval in %S" s))
  | _ -> Error (Printf.sprintf "unknown fsync policy %S (always|interval|never)" s)

let fsync_policy_name = function
  | Always -> "always"
  | Interval _ -> "interval"
  | Never -> "never"

type recovery = {
  checkpoint : string option;
  deltas : string list;
  replayed_records : int;
  replayed_bytes : int;
  checkpoint_bytes : int;
  truncated_bytes : int;
  segments : int;
}

exception Corrupt of string

(* ------------------------------------------------------------------ *)
(* Directory layout                                                    *)

let segment_name seq = Printf.sprintf "segment-%016d.log" seq

let segment_seq name =
  match Scanf.sscanf_opt name "segment-%d.log" (fun d -> d) with
  | Some d when segment_name d = name -> Some d
  | _ -> None

let list_segments dir =
  if not (Sys.file_exists dir) then []
  else
    Sys.readdir dir |> Array.to_list
    |> List.filter_map segment_seq
    |> List.sort compare

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* ------------------------------------------------------------------ *)
(* Scanning                                                            *)

type scan_acc = {
  mutable s_checkpoint : string option;
  mutable s_deltas : string list;  (** newest first. *)
  mutable s_truncated : int;
}

(* Outcome of one segment: how far its valid record prefix reaches and
   whether it ended with a seal. *)
type segment_end = { valid_len : int; sealed : bool }

(* The record CRC covers the kind byte followed by the body (the [len]
   bytes of [s] at [pos]), not the body alone: the three kind values are
   one bit flip apart, and a flipped kind reinterprets the record (a
   delta read back as a checkpoint silently discards every delta before
   it), so the kind must be under the checksum. *)
let record_crc ~kind s pos len = Crc32.update (Crc32.update_byte 0 kind) s pos len

(* Validate one record payload: 4-byte big-endian CRC over kind ‖ body,
   checked in place.  Returns the body, copied once, or [None] on
   mismatch/short payload. *)
let check_record ~kind payload =
  let len = String.length payload in
  if len < 4 then None
  else
    let crc =
      (Char.code payload.[0] lsl 24)
      lor (Char.code payload.[1] lsl 16)
      lor (Char.code payload.[2] lsl 8)
      lor Char.code payload.[3]
    in
    if record_crc ~kind payload 4 (len - 4) = crc then
      Some (String.sub payload 4 (len - 4))
    else None

(* Bytes asked of the file per read: with the feed's window this bounds
   a scan's buffer by the largest record plus one chunk. *)
let read_chunk = 65536

(* Scan one segment's records into [acc], streaming the file through a
   {!Frame.feed} in one pass.  A damaged suffix is tolerated only in
   the final segment (the only place a crash can tear a record):
   everything from the first invalid byte is dropped and counted.
   Elsewhere it raises {!Corrupt}. *)
let scan_segment ~path ~final acc =
  let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  let total = (Unix.fstat fd).Unix.st_size in
  let feed = Frame.feed () in
  let taken = ref 0 in
  (* Segment offset of the first byte not yet popped. *)
  let offset () = !taken - Frame.pending_bytes feed in
  let invalid why before =
    if final then begin
      acc.s_truncated <- acc.s_truncated + (total - before);
      { valid_len = before; sealed = false }
    end
    else
      raise
        (Corrupt
           (Printf.sprintf "%s: %s at offset %d in non-final segment" path why
              before))
  in
  let rec go () =
    let before = offset () in
    match Frame.pop feed with
    | Ok None ->
        let n = Frame.refill feed ~max:read_chunk (Unix.read fd) in
        if n > 0 then begin
          taken := !taken + n;
          go ()
        end
        else if Frame.pending_bytes feed = 0 then
          { valid_len = before; sealed = false }
        else invalid "torn record" before
    | Error e -> invalid (Codec.error_to_string e) before
    | Ok (Some (kind, payload)) -> (
        match check_record ~kind payload with
        | None -> invalid "record CRC mismatch" before
        | Some body ->
            if kind = kind_delta then begin
              acc.s_deltas <- body :: acc.s_deltas;
              go ()
            end
            else if kind = kind_checkpoint then begin
              acc.s_checkpoint <- Some body;
              acc.s_deltas <- [];
              go ()
            end
            else if kind = kind_seal then
              if offset () = total then { valid_len = total; sealed = true }
              else invalid "records after segment seal" (offset ())
            else
              invalid (Printf.sprintf "unknown record kind 0x%02x" kind) before)
  in
  go ()

(* Full-directory scan: recovery image plus writer positioning for the
   final segment ([None] when the directory holds no segments). *)
let scan dir =
  let seqs = list_segments dir in
  let acc = { s_checkpoint = None; s_deltas = []; s_truncated = 0 } in
  let rec go tail = function
    | [] -> tail
    | seq :: rest ->
        let path = Filename.concat dir (segment_name seq) in
        let e = scan_segment ~path ~final:(rest = []) acc in
        go (Some (seq, e)) rest
  in
  let tail = go None seqs in
  let deltas = List.rev acc.s_deltas in
  let recovery =
    {
      checkpoint = acc.s_checkpoint;
      deltas;
      replayed_records = List.length deltas;
      replayed_bytes = List.fold_left (fun a d -> a + String.length d) 0 deltas;
      checkpoint_bytes =
        (match acc.s_checkpoint with Some c -> String.length c | None -> 0);
      truncated_bytes = acc.s_truncated;
      segments = List.length seqs;
    }
  in
  (recovery, tail)

let read ~dir = fst (scan dir)

(* ------------------------------------------------------------------ *)
(* Writer                                                              *)

type t = {
  dir : string;
  segment_bytes : int;
  fsync : fsync_policy;
  buf : Buffer.t;  (** record staging, reused across appends. *)
  mutable seq : int;  (** active segment sequence number. *)
  mutable fd : Unix.file_descr;
  mutable written : int;  (** bytes in the active segment. *)
  mutable since_checkpoint : int;
  mutable appended : int;  (** delta body bytes through this handle. *)
  mutable last_sync : float;
  mutable unsynced : bool;
}

let open_segment dir seq =
  Unix.openfile
    (Filename.concat dir (segment_name seq))
    [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ]
    0o644

let fsync_now t =
  if t.unsynced then begin
    Unix.fsync t.fd;
    t.unsynced <- false
  end;
  t.last_sync <- Unix.gettimeofday ()

let maybe_fsync t =
  match t.fsync with
  | Always -> fsync_now t
  | Never -> ()
  | Interval s ->
      if Unix.gettimeofday () -. t.last_sync >= s then fsync_now t

let write_buf t =
  let s = Buffer.contents t.buf in
  let n = String.length s in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write_substring t.fd s !off (n - !off)
  done;
  t.written <- t.written + n;
  t.unsynced <- true

let emit_record t ~kind body =
  Buffer.clear t.buf;
  Frame.add_header t.buf ~kind ~payload_len:(4 + String.length body);
  let crc = record_crc ~kind body 0 (String.length body) in
  Buffer.add_char t.buf (Char.chr ((crc lsr 24) land 0xFF));
  Buffer.add_char t.buf (Char.chr ((crc lsr 16) land 0xFF));
  Buffer.add_char t.buf (Char.chr ((crc lsr 8) land 0xFF));
  Buffer.add_char t.buf (Char.chr (crc land 0xFF));
  Buffer.add_string t.buf body;
  write_buf t

(* Roll: seal the active segment (fsynced unconditionally, so every
   non-final segment is guaranteed clean — the precondition for
   treating mid-file damage there as real corruption), then start its
   successor. *)
let roll t =
  emit_record t ~kind:kind_seal "";
  Unix.fsync t.fd;
  t.unsynced <- false;
  Unix.close t.fd;
  t.seq <- t.seq + 1;
  t.fd <- open_segment t.dir t.seq;
  t.written <- 0

let append_delta t body =
  emit_record t ~kind:kind_delta body;
  t.since_checkpoint <- t.since_checkpoint + 1;
  t.appended <- t.appended + String.length body;
  if t.written >= t.segment_bytes then roll t else maybe_fsync t

(* The checkpoint is written and fsynced before any segment is deleted:
   a crash before the fsync leaves the previous checkpoint and every
   segment it needs intact (the torn/absent new record is dropped at
   recovery); a crash after it leaves at worst undeleted — harmless —
   older segments whose records the new checkpoint subsumes. *)
let checkpoint t body =
  emit_record t ~kind:kind_checkpoint body;
  Unix.fsync t.fd;
  t.unsynced <- false;
  t.last_sync <- Unix.gettimeofday ();
  t.since_checkpoint <- 0;
  List.iter
    (fun seq ->
      if seq < t.seq then
        try Sys.remove (Filename.concat t.dir (segment_name seq))
        with Sys_error _ -> ())
    (list_segments t.dir)

let deltas_since_checkpoint t = t.since_checkpoint
let appended_bytes t = t.appended

let sync t = fsync_now t

let close t =
  fsync_now t;
  Unix.close t.fd

let open_ ?(segment_bytes = default_segment_bytes) ?(fsync = Never) ~dir () =
  mkdir_p dir;
  let recovery, tail = scan dir in
  let seq, truncate_to =
    match tail with
    | None -> (0, None)
    | Some (seq, { sealed = true; _ }) -> (seq + 1, None)
    | Some (seq, { sealed = false; valid_len }) -> (seq, Some valid_len)
  in
  (* Drop a torn tail physically before appending over it. *)
  (match truncate_to with
  | Some len when recovery.truncated_bytes > 0 ->
      let fd =
        Unix.openfile (Filename.concat dir (segment_name seq)) [ Unix.O_WRONLY ]
          0o644
      in
      Unix.ftruncate fd len;
      Unix.close fd
  | _ -> ());
  let fd = open_segment dir seq in
  let t =
    {
      dir;
      segment_bytes;
      fsync;
      buf = Buffer.create 1024;
      seq;
      fd;
      written = (match truncate_to with Some len -> len | None -> 0);
      since_checkpoint = recovery.replayed_records;
      appended = 0;
      last_sync = Unix.gettimeofday ();
      unsynced = false;
    }
  in
  (t, recovery)

(* ------------------------------------------------------------------ *)
(* Durable image policy                                                *)

module type LATTICE = sig
  type t

  val bottom : t
  val is_bottom : t -> bool
  val join : t -> t -> t
  val delta : t -> t -> t
  val codec : t Codec.t
end

module Image (C : LATTICE) = struct
  let recover ~dir r =
    let decode what s =
      match Codec.decode_string C.codec s with
      | Ok v -> v
      | Error e ->
          raise
            (Corrupt
               (Printf.sprintf "%s: undecodable %s record: %s" dir what
                  (Codec.error_to_string e)))
    in
    List.fold_left
      (fun acc d -> C.join acc (decode "delta" d))
      (match r.checkpoint with
      | Some c -> decode "checkpoint" c
      | None -> C.bottom)
      r.deltas

  let persister t ~checkpoint_every image =
    let last = ref image in
    fun state ->
      let d = C.delta state !last in
      if not (C.is_bottom d) then begin
        append_delta t (Codec.encode_to_string C.codec d);
        if checkpoint_every > 0 && t.since_checkpoint >= checkpoint_every then
          checkpoint t (Codec.encode_to_string C.codec state)
      end;
      last := state
end
