(** Combinator-based binary codecs.

    A ['a t] bundles a writer (append the binary form of a value to a
    [Buffer.t]) with a {e total} reader: decoding never raises, it
    returns [Error] on truncated or corrupt input.  Codecs for the
    lattice composition catalogue are built from the combinators here,
    so every CRDT obtained by composition gets [encode]/[decode] for
    free (see DESIGN.md §6 for the wire-format specification).

    Totality contract: readers must (a) never raise on any input, and
    (b) never allocate proportionally to a {e claimed} length — every
    length/count prefix is validated against the bytes actually
    remaining before anything is allocated.

    Size contract: every codec used as a collection element consumes at
    least one byte per value, which is what makes the
    count-versus-remaining validation in {!list} sound.  The only
    zero-byte codec is {!unit}, intended solely for payload-less
    {!union} cases (where the tag byte provides the minimum). *)

type error =
  | Truncated  (** Input ended before the value was complete. *)
  | Malformed of string
      (** Structurally invalid input (bad tag, oversized varint,
          length prefix exceeding the remaining bytes, …). *)

let pp_error ppf = function
  | Truncated -> Format.fprintf ppf "truncated input"
  | Malformed msg -> Format.fprintf ppf "malformed input: %s" msg

let error_to_string e = Format.asprintf "%a" pp_error e

(** A bounded cursor over an immutable string.  [pos] advances as
    values are read; readers may never look past [limit]. *)
type reader = { src : string; mutable pos : int; limit : int }

let reader ?(pos = 0) ?len src =
  let limit =
    match len with Some l -> pos + l | None -> String.length src
  in
  if pos < 0 || limit > String.length src || pos > limit then
    invalid_arg "Codec.reader: window out of bounds";
  { src; pos; limit }

let remaining r = r.limit - r.pos

type 'a t = {
  write : Buffer.t -> 'a -> unit;
  read : reader -> ('a, error) result;
}

let write = fun c buf x -> c.write buf x
let read = fun c r -> c.read r

(* ------------------------------------------------------------------ *)
(* Primitive readers                                                   *)

let read_byte r =
  if r.pos >= r.limit then Error Truncated
  else begin
    let b = Char.code (String.unsafe_get r.src r.pos) in
    r.pos <- r.pos + 1;
    Ok b
  end

(* ------------------------------------------------------------------ *)
(* Varints                                                             *)

(* Unsigned LEB128 over the 63-bit native-int pattern: 7 value bits
   per byte, least-significant group first, high bit = continuation.
   [lsr] treats the int as its unsigned bit pattern, so every OCaml
   int — including negative patterns produced by zigzag — round-trips
   in at most 9 bytes (9 × 7 = 63 bits). *)
let write_varint buf n =
  let n = ref n in
  let continue = ref true in
  while !continue do
    let b = !n land 0x7f in
    n := !n lsr 7;
    if !n = 0 then begin
      Buffer.add_char buf (Char.unsafe_chr b);
      continue := false
    end
    else Buffer.add_char buf (Char.unsafe_chr (b lor 0x80))
  done

let read_varint r =
  let rec go acc shift =
    match read_byte r with
    | Error _ as e -> e
    | Ok b ->
        let acc = acc lor ((b land 0x7f) lsl shift) in
        if b land 0x80 = 0 then Ok acc
        else if shift >= 56 then
          (* A 10th group would exceed 63 bits. *)
          Error (Malformed "varint longer than 9 bytes")
        else go acc (shift + 7)
  in
  go 0 0

let varint_size n =
  let n = ref (n lsr 7) and size = ref 1 in
  while !n <> 0 do
    incr size;
    n := !n lsr 7
  done;
  !size

let varint = { write = write_varint; read = read_varint }

(* Zigzag maps small-magnitude signed ints to small unsigned patterns:
   0 → 0, -1 → 1, 1 → 2, -2 → 3, … *)
let zigzag n = (n lsl 1) lxor (n asr 62)
let unzigzag z = (z lsr 1) lxor (- (z land 1))

let int =
  {
    write = (fun buf n -> write_varint buf (zigzag n));
    read = (fun r -> Result.map unzigzag (read_varint r));
  }

(* ------------------------------------------------------------------ *)
(* Other primitives                                                    *)

let u8 =
  {
    write =
      (fun buf n ->
        if n < 0 || n > 0xff then invalid_arg "Codec.u8: out of range";
        Buffer.add_char buf (Char.unsafe_chr n));
    read = read_byte;
  }

let bool =
  {
    write = (fun buf b -> Buffer.add_char buf (if b then '\001' else '\000'));
    read =
      (fun r ->
        match read_byte r with
        | Error _ as e -> e
        | Ok 0 -> Ok false
        | Ok 1 -> Ok true
        | Ok b -> Error (Malformed (Printf.sprintf "bad bool byte %d" b)));
  }

let unit = { write = (fun _ () -> ()); read = (fun _ -> Ok ()) }

let string =
  {
    write =
      (fun buf s ->
        write_varint buf (String.length s);
        Buffer.add_string buf s);
    read =
      (fun r ->
        match read_varint r with
        | Error _ as e -> e
        | Ok n ->
            if n < 0 || n > remaining r then
              Error (Malformed "string length exceeds remaining input")
            else begin
              let s = String.sub r.src r.pos n in
              r.pos <- r.pos + n;
              Ok s
            end);
  }

(* ------------------------------------------------------------------ *)
(* Combinators                                                         *)

let conv proj inj c =
  {
    write = (fun buf x -> c.write buf (proj x));
    read = (fun r -> Result.map inj (c.read r));
  }

let conv_partial proj inj c =
  {
    write = (fun buf x -> c.write buf (proj x));
    read =
      (fun r -> match c.read r with Ok b -> inj b | Error _ as e -> e);
  }

let pair ca cb =
  {
    write =
      (fun buf (a, b) ->
        ca.write buf a;
        cb.write buf b);
    read =
      (fun r ->
        match ca.read r with
        | Error _ as e -> e
        | Ok a -> (
            match cb.read r with Error _ as e -> e | Ok b -> Ok (a, b)));
  }

let triple ca cb cc =
  conv
    (fun (a, b, c) -> (a, (b, c)))
    (fun (a, (b, c)) -> (a, b, c))
    (pair ca (pair cb cc))

let option c =
  {
    write =
      (fun buf -> function
        | None -> Buffer.add_char buf '\000'
        | Some x ->
            Buffer.add_char buf '\001';
            c.write buf x);
    read =
      (fun r ->
        match read_byte r with
        | Error _ as e -> e
        | Ok 0 -> Ok None
        | Ok 1 -> Result.map Option.some (c.read r)
        | Ok b -> Error (Malformed (Printf.sprintf "bad option tag %d" b)));
  }

(* The count prefix is validated against the bytes remaining before any
   element is decoded: since every element codec consumes ≥ 1 byte, a
   count larger than [remaining] cannot possibly be honest, so a
   corrupt length prefix is rejected in O(1) without allocating. *)
let list elt =
  {
    write =
      (fun buf l ->
        write_varint buf (List.length l);
        List.iter (fun x -> elt.write buf x) l);
    read =
      (fun r ->
        match read_varint r with
        | Error _ as e -> e
        | Ok n ->
            if n < 0 || n > remaining r then
              Error (Malformed "list count exceeds remaining input")
            else begin
              let rec go acc k =
                if k = 0 then Ok (List.rev acc)
                else
                  match elt.read r with
                  | Error _ as e -> e
                  | Ok x -> go (x :: acc) (k - 1)
              in
              go [] n
            end);
  }

(* ------------------------------------------------------------------ *)
(* Tagged unions                                                       *)

type 'a case =
  | Case : {
      tag : int;
      codec : 'b t;
      proj : 'a -> 'b option;
      inj : 'b -> 'a;
    }
      -> 'a case

let case tag codec proj inj =
  if tag < 0 || tag > 0xff then invalid_arg "Codec.case: tag out of range";
  Case { tag; codec; proj; inj }

let union ~name cases =
  {
    write =
      (fun buf x ->
        let rec go = function
          | [] -> invalid_arg (name ^ ": no union case matches value")
          | Case c :: rest -> (
              match c.proj x with
              | Some b ->
                  Buffer.add_char buf (Char.unsafe_chr c.tag);
                  c.codec.write buf b
              | None -> go rest)
        in
        go cases);
    read =
      (fun r ->
        match read_byte r with
        | Error _ as e -> e
        | Ok tag ->
            let rec go = function
              | [] ->
                  Error
                    (Malformed (Printf.sprintf "%s: unknown tag %d" name tag))
              | Case c :: rest ->
                  if c.tag = tag then Result.map c.inj (c.codec.read r)
                  else go rest
            in
            go cases);
  }

(* ------------------------------------------------------------------ *)
(* Whole-value entry points                                            *)

let encode_to_buffer c buf x = c.write buf x

(** Append the binary form of [x] to [buf].  This is the zero-copy
    entry point of the batched I/O path: a caller that owns a reusable
    buffer (a per-connection outbound queue, a payload scratch) encodes
    straight into it, with no intermediate string.  Byte-for-byte
    identical to {!encode_to_string} — the writers are the same — which
    the wire test suite checks across every registered message codec. *)
let encode_into buf c x = c.write buf x

let encode_to_string c x =
  let buf = Buffer.create 64 in
  encode_into buf c x;
  Buffer.contents buf

(* One scratch buffer per domain.  [encoded_size] measures from the
   buffer's current length and truncates back to it, so a codec's
   [write] may itself call [encoded_size].  The outermost call drops a
   buffer that has grown past 4 KiB: keeping up to 64 KiB sized large
   messages faster but raised the peak memory of a simulated Retwis run
   by about a fifth. *)
let scratch = Domain.DLS.new_key (fun () -> Buffer.create 64)

(** The length of [x]'s encoding, without keeping the bytes. *)
let encoded_size c x =
  let buf = Domain.DLS.get scratch in
  let start = Buffer.length buf in
  match c.write buf x with
  | () ->
      let n = Buffer.length buf - start in
      if start = 0 && Buffer.length buf > 4096 then Buffer.reset buf
      else Buffer.truncate buf start;
      n
  | exception e ->
      Buffer.truncate buf start;
      raise e

(** Decode a complete value from [s]; trailing bytes are an error (a
    frame carries exactly one value). *)
let decode_string c s =
  let r = reader s in
  match c.read r with
  | Error _ as e -> e
  | Ok x ->
      if r.pos = r.limit then Ok x
      else Error (Malformed "trailing bytes after value")
