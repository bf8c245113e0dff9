(* Virtual time.

   One tick is morally a microsecond. Integer time keeps the simulation
   exactly deterministic (no float rounding) and totally ordered. *)

type t = int

(* Comparators are written out by hand here and in every kernel type the
   engine and the certifier order: a derived comparator allocates a
   closure per call, and these run on every heap merge and table
   operation of the simulation. *)
let equal (a : t) (b : t) = a = b
let compare (a : t) (b : t) = Int.compare a b

let zero = 0
let of_int i = i
let to_int t = t
let add = ( + )
let diff = ( - )
let max = Stdlib.max
let min = Stdlib.min
let ( <= ) (a : t) (b : t) = Stdlib.( <= ) a b
let ( < ) (a : t) (b : t) = Stdlib.( < ) a b
let ( >= ) (a : t) (b : t) = Stdlib.( >= ) a b
let ( > ) (a : t) (b : t) = Stdlib.( > ) a b

let millisecond = 1_000
let second = 1_000_000

let pp ppf t =
  if t >= second && t mod millisecond = 0 then Fmt.pf ppf "%d.%03ds" (t / second) (t mod second / millisecond)
  else if t >= millisecond && t mod millisecond = 0 then Fmt.pf ppf "%dms" (t / millisecond)
  else Fmt.pf ppf "%dus" t

let show t = Fmt.str "%a" pp t
