(* One hashing story for the whole repo.

   Every digest structure in lib/digest — and the digest-flavoured
   protocols built on top (merkle, conflict-sync) — identifies an
   irreducible join-decomposition by the same stable 64-bit hash:
   FNV-1a over the value's *wire encoding*.  Hashing
   through the codec means the scheme works for every catalogue CRDT by
   construction (each lattice already carries a total codec) and is
   stable across processes, unlike [Hashtbl.hash] on arbitrary OCaml
   values.

   All hashes are folded into the non-negative 63-bit range so they
   varint-encode compactly and sum with plain [lxor] without sign
   surprises. *)

let fnv_offset = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L

(* Fold a 64-bit value to a *positive, nonzero* 63-bit int.  Zero is
   reserved as the "empty" sum in IBLT cells and Bloom words. *)
let to_key i64 =
  let v = Int64.to_int i64 land max_int in
  if v = 0 then 1 else v

let of_string s =
  let h = ref fnv_offset in
  String.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) fnv_prime)
    s;
  to_key !h

(* The canonical irreducible hash: encode through the lattice codec,
   FNV-1a the bytes. *)
let of_value codec v = of_string (Crdt_wire.Codec.encode_to_string codec v)

(* splitmix64 finalizer: cheap avalanche for deriving independent hash
   functions (Bloom double-hashing, IBLT check hashes, index streams)
   from one base key. *)
let mix64 z =
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xbf58476d1ce4e5b9L
  in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94d049bb133111ebL
  in
  Int64.logxor z (Int64.shift_right_logical z 31)

let mix h = to_key (mix64 (Int64.of_int h))

let golden = 0x9e3779b97f4a7c15L

(* An independent hash of [h] per [salt]. *)
let derive ~salt h =
  to_key
    (mix64 (Int64.add (Int64.of_int h) (Int64.mul golden (Int64.of_int (salt + 1)))))

(* Order-independent digest of a set of keys: xor of mixed keys.  The
   mix step stops structured key sets (e.g. consecutive ints) from
   cancelling. *)
let combine acc key = acc lxor mix key

(* Deterministic key-seeded PRNG (splitmix64 sequence) — drives the
   IBLT index stream, identically on both ends of a session. *)
type stream = { mutable s : int64 }

let stream seed = { s = Int64.of_int seed }

let next st =
  st.s <- Int64.add st.s golden;
  Int64.to_int (mix64 st.s) land max_int
