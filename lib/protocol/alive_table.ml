(* The alive interval table (paper §4.2, Appendix).

   One per 2PC Agent: an entry per global subtransaction currently in the
   (simulated) prepared state at a site, holding its serial number and
   its last known alive time interval. The basic prepare certification
   tests a candidate's interval for intersection with every entry; the
   commit certification asks whether any entry has a smaller serial
   number; the periodic alive check extends the interval's end.

   The paper: "The easiest way to implement the Certifier is to simply
   store the last alive time interval for each global subtransaction being
   in the prepared state. As an optimization, several of them might be
   stored." Only the first is implemented: a certification candidate's
   interval ends at the checking moment, and a resubmitted incarnation's
   interval begins after the failed one ended, so an older interval can
   never admit a candidate the newest one refuses (EXPERIMENTS.md, E9).

   These are the certifier's two hottest paths (every PREPARE scans the
   table, every COMMIT folds over it), so the table maintains incremental
   aggregates next to the entry map:

   - a (max-lo, min-hi) intersection window over every entry's interval,
     kept as two time-keyed multisets. A candidate intersects every
     entry iff it reaches past the largest lower end and starts before
     the smallest upper end, so [all_intersect] is O(log n) and exact.
   - a map sorted by (serial number, gid), making [min_sn_holds] and
     [min_sn_blocker] O(log n) instead of a fold per COMMIT attempt, with
     the gid tie-break deterministic by construction.

   The fold references these are tested against live in
   test/reference/deciders_reference.ml. *)

open Hermes_kernel

type entry = { gid : int; sn : Sn.t; mutable interval : Interval.t }

module Sn_map = Map.Make (struct
  type t = Sn.t * int

  let compare (s1, g1) (s2, g2) =
    match Sn.compare s1 s2 with 0 -> Int.compare g1 g2 | c -> c
end)

(* A multiset of times: time -> multiplicity. *)
module Time_bag = struct
  module M = Map.Make (Time)

  type t = int M.t

  let empty = M.empty
  let add x t = M.update x (fun n -> Some (Option.value ~default:0 n + 1)) t

  let remove x t =
    M.update x (function Some n when n > 1 -> Some (n - 1) | _ -> None) t

  let min t = Option.map fst (M.min_binding_opt t)
  let max t = Option.map fst (M.max_binding_opt t)
end

type t = {
  entries : entry Int_tbl.t;
  mutable by_sn : entry Sn_map.t;
  mutable lo_bag : Time_bag.t;  (* interval lower ends *)
  mutable hi_bag : Time_bag.t;  (* interval upper ends *)
}

let create () =
  { entries = Int_tbl.create 16; by_sn = Sn_map.empty; lo_bag = Time_bag.empty;
    hi_bag = Time_bag.empty }

(* Aggregate bookkeeping around any change to an entry's interval. *)
let untrack_interval t e =
  t.lo_bag <- Time_bag.remove (Interval.lo e.interval) t.lo_bag;
  t.hi_bag <- Time_bag.remove (Interval.hi e.interval) t.hi_bag

let track_interval t e =
  t.lo_bag <- Time_bag.add (Interval.lo e.interval) t.lo_bag;
  t.hi_bag <- Time_bag.add (Interval.hi e.interval) t.hi_bag

let insert t ~gid ~sn ~interval =
  if Int_tbl.mem t.entries gid then invalid_arg "Alive_table.insert: duplicate entry";
  let e = { gid; sn; interval } in
  Int_tbl.replace t.entries gid e;
  t.by_sn <- Sn_map.add (sn, gid) e t.by_sn;
  track_interval t e

let remove t ~gid =
  match Int_tbl.find_opt t.entries gid with
  | None -> ()
  | Some e ->
      Int_tbl.remove t.entries gid;
      t.by_sn <- Sn_map.remove (e.sn, gid) t.by_sn;
      untrack_interval t e

let find t ~gid = Int_tbl.find_opt t.entries gid

(* An independent copy (entry records are duplicated, so mutating one
   table never touches the other) — for the model checker, which branches
   from an agent state many times while [Agent_sm.step] updates the
   table it is given in place. *)
let copy t =
  let c = create () in
  Int_tbl.iter
    (fun gid e ->
      let e' = { gid = e.gid; sn = e.sn; interval = e.interval } in
      Int_tbl.replace c.entries gid e';
      c.by_sn <- Sn_map.add (e'.sn, gid) e' c.by_sn;
      track_interval c e')
    t.entries;
  c
let mem t ~gid = Int_tbl.mem t.entries gid
let entries t = Int_tbl.fold (fun _ e acc -> e :: acc) t.entries []
let size t = Int_tbl.length t.entries

(* Begin a fresh interval (a resubmission completed), forgetting the
   failed incarnation's. *)
let update_interval t ~gid interval =
  match Int_tbl.find_opt t.entries gid with
  | Some e ->
      untrack_interval t e;
      e.interval <- interval;
      track_interval t e
  | None -> ()

let extend_interval t ~gid ~hi =
  match Int_tbl.find_opt t.entries gid with
  | Some e when Time.(Interval.lo e.interval <= hi) ->
      untrack_interval t e;
      e.interval <- Interval.extend_to e.interval ~hi;
      track_interval t e
  | Some _ | None -> ()

(* The Alive Time Intersection Rule: the candidate may be prepared only
   if it intersects every entry's interval, i.e. iff it reaches past the
   largest lower end and starts before the smallest upper end. *)
let all_intersect t candidate =
  match (Time_bag.max t.lo_bag, Time_bag.min t.hi_bag) with
  | None, _ | _, None -> true  (* empty table *)
  | Some max_lo, Some min_hi ->
      Time.(Interval.lo candidate <= min_hi) && Time.(max_lo <= Interval.hi candidate)

(* Deterministic certification witnesses, for the event trace: which
   entry refused the candidate / holds the commit back. *)
let first_non_intersecting t candidate =
  Int_tbl.fold
    (fun _ e acc ->
      if Interval.intersects candidate e.interval then acc
      else match acc with Some b when b.gid < e.gid -> acc | _ -> Some e)
    t.entries None

(* The sorted map minus the candidate's own entry: the smallest
   (serial number, gid) among the *other* entries, if any. *)
let min_other t ~gid =
  let m =
    match Int_tbl.find_opt t.entries gid with
    | Some e -> Sn_map.remove (e.sn, gid) t.by_sn
    | None -> t.by_sn
  in
  Sn_map.min_binding_opt m

(* Commit certification test (Appendix C): true iff every *other* entry
   has a bigger serial number than [sn]. *)
let min_sn_holds t ~gid ~sn =
  match min_other t ~gid with None -> true | Some ((s, _), _) -> Sn.(s > sn)

let min_sn_blocker t ~gid ~sn =
  match min_other t ~gid with
  | Some ((s, _), e) when not Sn.(s > sn) -> Some e
  | _ -> None

let pp ppf t =
  let pp_entry ppf e =
    Fmt.pf ppf "T%d sn=%a %a" e.gid Sn.pp e.sn Interval.pp e.interval
  in
  Fmt.pf ppf "@[<v>%a@]" Fmt.(list ~sep:cut pp_entry)
    (List.sort (fun a b -> Int.compare a.gid b.gid) (entries t))
