(* The alive interval table (paper §4.2, Appendix).

   One per 2PC Agent: an entry per global subtransaction currently in the
   (simulated) prepared state at the site, holding its serial number and
   its known alive time intervals. The basic prepare certification tests a
   candidate's interval for intersection with every entry; the commit
   certification asks whether any entry has a smaller serial number; the
   periodic alive check extends the current interval's end.

   The paper: "The easiest way to implement the Certifier is to simply
   store the last alive time interval for each global subtransaction being
   in the prepared state. As an optimization, several of them might be
   stored." Both variants live here: each entry keeps up to [max_intervals]
   intervals (newest first), and the intersection rule is satisfied by
   *any* stored interval — sound because whichever interval witnesses
   simultaneous aliveness proves conflict-freeness of the (stable)
   decompositions, hence of every future incarnation (§4.2).

   These are the certifier's two hottest paths (every PREPARE scans the
   table, every COMMIT folds over it), so the table maintains incremental
   aggregates next to the entry map:

   - a (max-lo, min-hi) intersection window over every entry's *current*
     interval, kept as two time-keyed multisets. A candidate inside the
     window intersects the newest interval of every entry — an O(log n)
     accept fast path for [all_intersect]; when no entry stores more than
     one interval (the paper's baseline, and the common case) a window
     miss is also an exact reject, so the fold never runs.
   - a map sorted by (serial number, gid), making [min_sn_holds] and
     [min_sn_blocker] O(log n) instead of a fold per COMMIT attempt, with
     the gid tie-break deterministic by construction.

   The fold-based intersection rule survives as [all_intersect_fold]: the
   fast path falls back to it on a window miss, and the property tests
   and benchmarks compare against it. *)

open Hermes_kernel

type entry = { gid : int; sn : Sn.t; mutable intervals : Interval.t list (* newest first, never empty *) }

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
  entries : (int, entry) Hashtbl.t;
  mutable by_sn : entry Sn_map.t;
  mutable lo_bag : Time_bag.t;  (* current-interval lower ends *)
  mutable hi_bag : Time_bag.t;  (* current-interval upper ends *)
  mutable multi : int;  (* entries storing more than one interval *)
}

let create () =
  { entries = Hashtbl.create 16; by_sn = Sn_map.empty; lo_bag = Time_bag.empty;
    hi_bag = Time_bag.empty; multi = 0 }

let current_interval e = match e.intervals with i :: _ -> i | [] -> assert false

(* Aggregate bookkeeping around any change to an entry's interval list. *)
let untrack_intervals t e =
  let cur = current_interval e in
  t.lo_bag <- Time_bag.remove (Interval.lo cur) t.lo_bag;
  t.hi_bag <- Time_bag.remove (Interval.hi cur) t.hi_bag;
  if List.length e.intervals > 1 then t.multi <- t.multi - 1

let track_intervals t e =
  let cur = current_interval e in
  t.lo_bag <- Time_bag.add (Interval.lo cur) t.lo_bag;
  t.hi_bag <- Time_bag.add (Interval.hi cur) t.hi_bag;
  if List.length e.intervals > 1 then t.multi <- t.multi + 1

let insert t ~gid ~sn ~interval =
  if Hashtbl.mem t.entries gid then invalid_arg "Alive_table.insert: duplicate entry";
  let e = { gid; sn; intervals = [ interval ] } in
  Hashtbl.replace t.entries gid e;
  t.by_sn <- Sn_map.add (sn, gid) e t.by_sn;
  track_intervals t e

let remove t ~gid =
  match Hashtbl.find_opt t.entries gid with
  | None -> ()
  | Some e ->
      Hashtbl.remove t.entries gid;
      t.by_sn <- Sn_map.remove (e.sn, gid) t.by_sn;
      untrack_intervals t e

let find t ~gid = Hashtbl.find_opt t.entries gid

(* An independent copy (entry records are duplicated, so mutating one
   table never touches the other) — for the model checker, which branches
   from an agent state many times while [Agent_sm.step] updates the
   table it is given in place. *)
let copy t =
  let c = create () in
  Hashtbl.iter
    (fun gid e ->
      let e' = { gid = e.gid; sn = e.sn; intervals = e.intervals } in
      Hashtbl.replace c.entries gid e';
      c.by_sn <- Sn_map.add (e'.sn, gid) e' c.by_sn;
      track_intervals c e')
    t.entries;
  c
let mem t ~gid = Hashtbl.mem t.entries gid
let entries t = Hashtbl.fold (fun _ e acc -> e :: acc) t.entries []
let size t = Hashtbl.length t.entries

(* Begin a fresh interval (a resubmission completed), keeping at most
   [max_intervals] per entry. *)
let push_interval t ~gid ~max_intervals interval =
  match Hashtbl.find_opt t.entries gid with
  | Some e ->
      let keep = Stdlib.max 1 max_intervals in
      untrack_intervals t e;
      e.intervals <- interval :: List.filteri (fun i _ -> i < keep - 1) e.intervals;
      track_intervals t e
  | None -> ()

(* Replace all knowledge with a single interval — the paper's
   store-only-the-last-interval baseline. *)
let update_interval t ~gid interval =
  match Hashtbl.find_opt t.entries gid with
  | Some e ->
      untrack_intervals t e;
      e.intervals <- [ interval ];
      track_intervals t e
  | None -> ()

let extend_interval t ~gid ~hi =
  match Hashtbl.find_opt t.entries gid with
  | Some e -> (
      match e.intervals with
      | cur :: rest when Time.(Interval.lo cur <= hi) ->
          untrack_intervals t e;
          e.intervals <- Interval.extend_to cur ~hi :: rest;
          track_intervals t e
      | _ -> ())
  | None -> ()

(* The Alive Time Intersection Rule, fold reference: the candidate may be
   prepared only if it intersects some stored interval of every entry. *)
let all_intersect_fold t candidate =
  Hashtbl.fold
    (fun _ e acc -> acc && List.exists (Interval.intersects candidate) e.intervals)
    t.entries true

(* Fast path: the candidate intersects every entry's *current* interval
   iff it reaches past the largest lower end and starts before the
   smallest upper end. Sufficient always; exact when every entry stores a
   single interval (multi = 0). *)
let all_intersect t candidate =
  match (Time_bag.max t.lo_bag, Time_bag.min t.hi_bag) with
  | None, _ | _, None -> true  (* empty table *)
  | Some max_lo, Some min_hi ->
      if Time.(Interval.lo candidate <= min_hi) && Time.(max_lo <= Interval.hi candidate) then true
      else if t.multi = 0 then false
      else all_intersect_fold t candidate

(* Deterministic certification witnesses, for the event trace: which
   entry refused the candidate / holds the commit back. *)
let first_non_intersecting t candidate =
  Hashtbl.fold
    (fun _ e acc ->
      if List.exists (Interval.intersects candidate) e.intervals then acc
      else match acc with Some b when b.gid < e.gid -> acc | _ -> Some e)
    t.entries None

(* The sorted map minus the candidate's own entry: the smallest
   (serial number, gid) among the *other* entries, if any. *)
let min_other t ~gid =
  let m =
    match Hashtbl.find_opt t.entries gid with
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
    Fmt.pf ppf "T%d sn=%a %a" e.gid Sn.pp e.sn Fmt.(list ~sep:comma Interval.pp) e.intervals
  in
  Fmt.pf ppf "@[<v>%a@]" Fmt.(list ~sep:cut pp_entry) (entries t)
