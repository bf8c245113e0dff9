(* The kernel's Int_tbl as it was: [Hashtbl.Make] over the same mixing
   hash. The monomorphic table must answer every call as this one does
   and traverse its bindings in the same order. *)

include Hashtbl.Make (struct
  type t = int

  let equal = Int.equal

  let hash k =
    let h = k * 0x2545F4914F6CDD1D in
    h lxor (h lsr 29)
end)
