(* Serial numbers (paper §5.2).

   A globally unique serial number is drawn from a totally ordered set when
   the application submits the global Commit; it rides on the PREPARE
   messages, and each Certifier releases local commits in SN order. The
   paper recommends "real time site clocks, expanded with the unique site
   identifier": drift between site clocks cannot break correctness, only
   cause unnecessary aborts. The [seq] component makes numbers issued by
   one coordinator within the same tick unique. *)

type t = { ts : Time.t; site : Site.t; seq : int }

(* Lexicographic on (ts, site, seq). *)
let equal a b = Time.equal a.ts b.ts && Site.equal a.site b.site && Int.equal a.seq b.seq

let compare a b =
  match Time.compare a.ts b.ts with
  | 0 -> ( match Site.compare a.site b.site with 0 -> Int.compare a.seq b.seq | c -> c)
  | c -> c

let make ~ts ~site ~seq =
  if seq < 0 then invalid_arg "Sn.make: negative seq";
  { ts; site; seq }

let ts t = t.ts
let site t = t.site

let pp ppf { ts; site; seq } = Fmt.pf ppf "%d.%s.%d" (Time.to_int ts) (Site.name site) seq
let show t = Fmt.str "%a" pp t

let ( < ) a b = compare a b < 0
let ( > ) a b = compare a b > 0
