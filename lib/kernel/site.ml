(* Site identifiers.

   A site hosts one LDBS/LTM pair and one 2PC Agent. Sites are created in
   sequence by the simulation setup; the integer is also used to break ties
   in serial numbers, as the paper suggests ("real time site clocks,
   expanded with the unique site identifier"). *)

type t = int

let equal (a : t) (b : t) = a = b
let compare (a : t) (b : t) = Int.compare a b

let of_int i =
  if i < 0 then invalid_arg "Site.of_int: negative site id";
  i

let to_int t = t

(* Sites print as 'a', 'b', ... for the first 26, matching the paper's
   notation (X^a, C^b_10, ...); beyond that, "s27", "s28", ... *)
let name t = if t < 26 then String.make 1 (Char.chr (Char.code 'a' + t)) else "s" ^ string_of_int t

let pp ppf t = Fmt.string ppf (name t)
let show = name

module Map = Map.Make (Int)
module Set = Set.Make (Int)
