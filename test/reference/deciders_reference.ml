(* The deciders as first written, against the public API. The library
   keeps only the fast versions; these are their references. *)

open Hermes_kernel
open Hermes_history
open Hermes_protocol

(* The exact view-serializability decision: enumerate serial orders
   lazily, replaying the whole serial history per candidate, and stop at
   the first witness. The pruned DFS of [View.view_serializable] must
   reach the same decisions (witness orders may differ). *)
let rec insertions x = function
  | [] -> [ [ x ] ]
  | y :: rest as l -> (x :: l) :: List.map (fun r -> y :: r) (insertions x rest)

let rec permutations = function
  | [] -> Seq.return []
  | x :: rest -> Seq.concat_map (fun p -> List.to_seq (insertions x p)) (permutations rest)

let view_serializable_naive ?(limit = 8) h =
  let txns = History.txns h in
  if txns = [] then View.Serializable []
  else if List.length txns > limit then View.Too_large
  else begin
    let target = View.view_data h in
    let witness =
      Seq.find (fun order -> Stdlib.( = ) (View.view_data (View.serial_of_order h order)) target) (permutations txns)
    in
    match witness with Some order -> View.Serializable order | None -> View.Not_serializable
  end

(* The commit certification as a fold over every entry: the reference
   the sorted-map versions must agree with. Equal serial numbers break
   ties on the smaller gid, so the witness does not depend on the order
   of the entries. *)
let min_sn_holds_fold t ~gid ~sn =
  List.for_all (fun (e : Alive_table.entry) -> e.gid = gid || Sn.(e.sn > sn)) (Alive_table.entries t)

let min_sn_blocker_fold t ~gid ~sn =
  List.fold_left
    (fun acc (e : Alive_table.entry) ->
      if e.gid = gid || Sn.(e.sn > sn) then acc
      else
        match acc with
        | Some (b : Alive_table.entry) when Sn.compare b.sn e.sn < 0 || (Sn.compare b.sn e.sn = 0 && b.gid < e.gid)
          ->
            acc
        | _ -> Some e)
    None (Alive_table.entries t)

(* The Alive Time Intersection Rule as a fold over every entry: the
   reference the (max-lo, min-hi) window of [Alive_table.all_intersect]
   must agree with. *)
let all_intersect_fold t candidate =
  List.for_all
    (fun (e : Alive_table.entry) -> Interval.intersects candidate e.interval)
    (Alive_table.entries t)
