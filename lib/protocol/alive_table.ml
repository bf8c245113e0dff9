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

   A site holds a handful of prepared subtransactions at a time, so the
   table is one dense array of entries, scanned linearly by every query:
   the intersection rule, the min-SN test and their witnesses are each
   one pass over a few words, and an insert, a removal or an interval
   change maintains no aggregate. A removal moves the last entry into
   the freed slot, so the order of [entries] is not the insertion order;
   no caller depends on it.

   The fold references these are tested against live in
   test/reference/deciders_reference.ml. *)

open Hermes_kernel

type entry = { gid : int; sn : Sn.t; mutable interval : Interval.t }

type t = {
  mutable slots : entry array;  (* [slots.(0 .. size - 1)] are the entries *)
  mutable size : int;
}

(* Fills the unused slots, so a removed entry is not kept alive. *)
let vacant =
  {
    gid = -1;
    sn = Sn.make ~ts:Time.zero ~site:(Site.of_int 0) ~seq:0;
    interval = Interval.point Time.zero;
  }

let create () = { slots = [||]; size = 0 }

(* The scans are top-level loops, so a query allocates no closure. *)
let rec index_from t gid i =
  if i = t.size then -1 else if t.slots.(i).gid = gid then i else index_from t gid (i + 1)

let index t gid = index_from t gid 0

let insert t ~gid ~sn ~interval =
  if index t gid >= 0 then invalid_arg "Alive_table.insert: duplicate entry";
  if t.size = Array.length t.slots then begin
    let slots = Array.make (max 4 (2 * t.size)) vacant in
    Array.blit t.slots 0 slots 0 t.size;
    t.slots <- slots
  end;
  t.slots.(t.size) <- { gid; sn; interval };
  t.size <- t.size + 1

let remove t ~gid =
  let i = index t gid in
  if i >= 0 then begin
    let last = t.size - 1 in
    t.slots.(i) <- t.slots.(last);
    t.slots.(last) <- vacant;
    t.size <- last
  end

let clear t =
  Array.fill t.slots 0 t.size vacant;
  t.size <- 0

let find t ~gid =
  let i = index t gid in
  if i < 0 then None else Some t.slots.(i)

(* An independent copy (entry records are duplicated, so mutating one
   table never touches the other) — for the model checker, which branches
   from an agent state many times while [Agent_sm.step] updates the
   table it is given in place. *)
let copy t =
  let dup i =
    let e = t.slots.(i) in
    { gid = e.gid; sn = e.sn; interval = e.interval }
  in
  { slots = Array.init t.size dup; size = t.size }

let mem t ~gid = index t gid >= 0
let size t = t.size

let entries t =
  let rec go i acc = if i < 0 then acc else go (i - 1) (t.slots.(i) :: acc) in
  go (t.size - 1) []

let iter f t =
  for i = 0 to t.size - 1 do
    f t.slots.(i)
  done

let for_all p t =
  let rec go i = i = t.size || (p t.slots.(i) && go (i + 1)) in
  go 0

(* Begin a fresh interval (a resubmission completed), forgetting the
   failed incarnation's. *)
let update_interval t ~gid interval =
  let i = index t gid in
  if i >= 0 then t.slots.(i).interval <- interval

let extend_entry e ~hi =
  if Time.(Interval.lo e.interval <= hi) then e.interval <- Interval.extend_to e.interval ~hi

let extend_interval t ~gid ~hi =
  let i = index t gid in
  if i >= 0 then extend_entry t.slots.(i) ~hi

(* The Alive Time Intersection Rule: the candidate may be prepared only
   if it intersects every entry's interval. *)
let rec all_intersect_from t candidate i =
  i = t.size || (Interval.intersects candidate t.slots.(i).interval && all_intersect_from t candidate (i + 1))

let all_intersect t candidate = all_intersect_from t candidate 0

(* Deterministic certification witnesses, for the event trace: which
   entry refused the candidate / holds the commit back. *)
let first_non_intersecting t candidate =
  let best = ref None in
  iter
    (fun e ->
      if not (Interval.intersects candidate e.interval) then
        match !best with Some b when b.gid < e.gid -> () | _ -> best := Some e)
    t;
  !best

(* Commit certification test (Appendix C): true iff every *other* entry
   has a bigger serial number than [sn]. *)
let rec min_sn_holds_from t gid sn i =
  i = t.size
  || (let e = t.slots.(i) in
      (e.gid = gid || Sn.(e.sn > sn)) && min_sn_holds_from t gid sn (i + 1))

let min_sn_holds t ~gid ~sn = min_sn_holds_from t gid sn 0

(* The smallest (serial number, gid) among the other entries at or
   below [sn]: the smallest of all the other entries whenever that one
   blocks. *)
let min_sn_blocker t ~gid ~sn =
  let best = ref None in
  iter
    (fun e ->
      if e.gid <> gid && not Sn.(e.sn > sn) then
        match !best with
        | Some b when (match Sn.compare b.sn e.sn with 0 -> b.gid < e.gid | c -> c < 0) -> ()
        | _ -> best := Some e)
    t;
  !best

let pp ppf t =
  let pp_entry ppf e =
    Fmt.pf ppf "T%d sn=%a %a" e.gid Sn.pp e.sn Interval.pp e.interval
  in
  Fmt.pf ppf "@[<v>%a@]" Fmt.(list ~sep:cut pp_entry)
    (List.sort (fun a b -> Int.compare a.gid b.gid) (entries t))
