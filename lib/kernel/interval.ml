(* Closed time intervals [lo, hi], the "alive time intervals" of §4.2.

   An interval records a span during which a local subtransaction is known
   to have been alive (all DML commands executed, neither committed nor
   aborted). The certifier's soundness rests on the Alive Time Intersection
   Rule: if two alive intervals intersect, the subtransactions were alive
   simultaneously, and under rigorousness simultaneously-alive
   subtransactions cannot conflict. *)

type t = { lo : Time.t; hi : Time.t }

let equal a b = Time.equal a.lo b.lo && Time.equal a.hi b.hi
let compare a b = match Time.compare a.lo b.lo with 0 -> Time.compare a.hi b.hi | c -> c

let make ~lo ~hi =
  if Time.(hi < lo) then invalid_arg "Interval.make: hi < lo";
  { lo; hi }

let point t = { lo = t; hi = t }
let lo t = t.lo
let hi t = t.hi
let extend_to t ~hi = if Time.(hi < t.lo) then invalid_arg "Interval.extend_to" else { t with hi }

let intersects a b = Time.(a.lo <= b.hi) && Time.(b.lo <= a.hi)

let intersection a b =
  if intersects a b then Some { lo = Time.max a.lo b.lo; hi = Time.min a.hi b.hi } else None


let pp ppf t = Fmt.pf ppf "[%a, %a]" Time.pp t.lo Time.pp t.hi
let show t = Fmt.str "%a" pp t
