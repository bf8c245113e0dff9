(* Data items.

   An item is a concrete table row at a site, as in the paper ("the data
   items X^a, Y^a, etc. are assumed to be single concrete table rows at
   site a"). Items are the granularity of elementary Read/Write operations,
   of locking, and of the DLU bound-data registry. *)

type t = { site : Site.t; table : string; key : int }

(* Lexicographic on (site, table, key). *)
let equal a b = Site.equal a.site b.site && Int.equal a.key b.key && String.equal a.table b.table

let compare a b =
  match Site.compare a.site b.site with
  | 0 -> ( match String.compare a.table b.table with 0 -> Int.compare a.key b.key | c -> c)
  | c -> c

let make ~site ~table ~key = { site; table; key }
let site t = t.site
let table t = t.table
let key t = t.key

(* Paper-style item names: table "X" key 0 at site a prints as "Xa"; other
   keys as "X3a". *)
let pp ppf { site; table; key } =
  if key = 0 then Fmt.pf ppf "%s%s" table (Site.name site) else Fmt.pf ppf "%s%d%s" table key (Site.name site)

let show t = Fmt.str "%a" pp t

module T = struct
  type nonrec t = t

  let compare = compare
end

module Map = Map.Make (T)
module Set = Set.Make (T)
