(* Hash tables on int keys: gids, LTM transaction ids, row keys.

   [Hashtbl.Make (Int)] hashes through [Int.hash], a call into the C
   [caml_hash]; the polymorphic [Hashtbl] does the same. This hash is
   two inline operations: multiply by an odd 62-bit constant, then fold
   the high bits down. The fold matters: a table masks off the low bits
   of the hash, and shard x of k hands out the gids x + 1 + k * c, whose
   low bits are alike when k has a power of two as a factor. With the
   identity hash, 10 000 such gids at k = 64 shared buckets up to 79
   deep; with this one, no bucket holds more than 7 at any k up to 128. *)

include Hashtbl.Make (struct
  type t = int

  let equal = Int.equal

  let hash k =
    let h = k * 0x2545F4914F6CDD1D in
    h lxor (h lsr 29)
end)
