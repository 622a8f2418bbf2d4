(** CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320).

    Hand-rolled table-driven implementation — the store's per-record
    integrity check must not pull in an external checksum dependency.
    OCaml's native [int] is ≥ 63 bits, so the 32-bit arithmetic is plain
    [land]/[lxor] with a final mask. *)

let table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

(** [update crc s pos len] folds [len] bytes of [s] at [pos] into a
    running value previously returned by [update] or {!update_byte}
    (start from 0). *)
let update crc s pos len =
  let t = Lazy.force table in
  let c = ref (crc lxor 0xFFFFFFFF) in
  for i = pos to pos + len - 1 do
    c := t.((!c lxor Char.code (String.unsafe_get s i)) land 0xFF)
         lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

(** [update_byte crc b] folds the one byte [b] (0–255) into a running
    value, as [update] would fold a one-character string. *)
let update_byte crc b =
  let c = crc lxor 0xFFFFFFFF in
  (Lazy.force table).((c lxor b) land 0xFF) lxor (c lsr 8) lxor 0xFFFFFFFF
