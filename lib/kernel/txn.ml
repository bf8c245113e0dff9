(* Transaction identities.

   A *global* transaction T_i is coordinated by the DTM and has
   subtransactions at one or more sites; the k-th resubmission of its
   subtransaction at site s is the *incarnation* (i, s, k) — a fresh
   transaction from the LTM's point of view, but the same logical
   transaction globally (paper §3). A *local* transaction L is submitted
   directly to one LTM and is invisible to the DTM. *)

type t =
  | Global of int
  | Local of { site : Site.t; n : int }

(* Globals order before locals, then by their fields — the declaration
   order, as [Stdlib.compare] has it. *)
let equal a b =
  match (a, b) with
  | Global x, Global y -> Int.equal x y
  | Local x, Local y -> Site.equal x.site y.site && Int.equal x.n y.n
  | Global _, Local _ | Local _, Global _ -> false

let compare a b =
  match (a, b) with
  | Global x, Global y -> Int.compare x y
  | Local x, Local y -> ( match Site.compare x.site y.site with 0 -> Int.compare x.n y.n | c -> c)
  | Global _, Local _ -> -1
  | Local _, Global _ -> 1

let global i =
  if i < 0 then invalid_arg "Txn.global: negative id";
  Global i

let local ~site ~n =
  if n < 0 then invalid_arg "Txn.local: negative id";
  Local { site; n }

let is_global = function Global _ -> true | Local _ -> false
let is_local = function Local _ -> true | Global _ -> false

let pp ppf = function
  | Global i -> Fmt.pf ppf "T%d" i
  | Local { site; n } -> Fmt.pf ppf "L%d%s" n (Site.name site)

let show t = Fmt.str "%a" pp t

module T = struct
  type nonrec t = t

  let compare = compare
end

module Map = Map.Make (T)
module Set = Set.Make (T)

(* A subtransaction incarnation: global transaction [txn]'s [inc]-th local
   subtransaction at [site] ([inc] = 0 is the original submission, higher
   values are resubmissions after unilateral aborts). Local transactions
   always have [inc] = 0. *)
type txn = t

let equal_txn = equal
let compare_txn = compare

module Incarnation = struct
  type t = { txn : txn; site : Site.t; inc : int }

  let equal a b = Int.equal a.inc b.inc && Site.equal a.site b.site && equal_txn a.txn b.txn

  let compare a b =
    match compare_txn a.txn b.txn with
    | 0 -> ( match Site.compare a.site b.site with 0 -> Int.compare a.inc b.inc | c -> c)
    | c -> c

  let make ~txn ~site ~inc =
    if inc < 0 then invalid_arg "Incarnation.make: negative incarnation";
    (match txn with
    | Local l when not (Site.equal l.site site) -> invalid_arg "Incarnation.make: local txn at foreign site"
    | Local _ when inc <> 0 -> invalid_arg "Incarnation.make: local txns are never resubmitted"
    | Local _ | Global _ -> ());
    { txn; site; inc }

  let pp ppf { txn; site; inc } =
    match txn with
    | Global i -> Fmt.pf ppf "T%s%d%d" (Site.name site) i inc
    | Local _ -> pp ppf txn

  let show t = Fmt.str "%a" pp t
end
