(* The concrete database state of one LDBS: named tables of integer-keyed
   rows, updated in place. Recovery (the RR assumption) is implemented by
   the undo logs in {!Undo}; this module only provides raw state access.

   Mutation goes through [write] (upsert) and [delete], both of which
   return the before image so the caller can log it. Range scans return
   keys in ascending order, which keeps the decomposition function
   deterministic (DDF). *)

open Hermes_kernel

(* A table is found by name ({!Tables}), then the row by key in its int
   table. *)
type t = { site : Site.t; tables : Row.t Tables.t }

let create ~site = { site; tables = Tables.create ~rows:64 }
let site t = t.site
let table t name = Tables.find_or_add t.tables name

let read t ~table:name ~key = Int_tbl.find_opt (table t name) key

let write t ~table:name ~key row =
  let tbl = table t name in
  let before = Int_tbl.find_opt tbl key in
  Int_tbl.replace tbl key row;
  before

let delete t ~table:name ~key =
  let tbl = table t name in
  let before = Int_tbl.find_opt tbl key in
  Int_tbl.remove tbl key;
  before

(* Restore a before image: [None] removes the row. *)
let restore t ~table:name ~key before =
  let tbl = table t name in
  match before with None -> Int_tbl.remove tbl key | Some row -> Int_tbl.replace tbl key row

(* A range narrower than the table probes its keys, from [hi] down so the
   list comes out ascending; any other range folds the rows and sorts.
   [hi - lo] is negative when [lo > hi] or the width overflows. *)
let keys_in_range t ~table:name ~lo ~hi =
  let tbl = table t name in
  let width = hi - lo in
  if width >= 0 && width < Int_tbl.length tbl then begin
    let keys = ref [] in
    for k = hi downto lo do
      if Int_tbl.mem tbl k then keys := k :: !keys
    done;
    !keys
  end
  else
    Int_tbl.fold (fun k _ acc -> if lo <= k && k <= hi then k :: acc else acc) tbl []
    |> List.sort Int.compare

let mem t ~table:name ~key = Int_tbl.mem (table t name) key

let item t ~table ~key = Item.make ~site:t.site ~table ~key

let table_names t = Tables.fold (fun name _ acc -> name :: acc) t.tables [] |> List.sort String.compare
let size t = Tables.fold (fun _ tbl acc -> acc + Int_tbl.length tbl) t.tables 0

(* A deterministic snapshot of the whole database, for invariant checks in
   tests and examples (e.g. conservation of money in the banking example). *)
let snapshot t =
  table_names t
  |> List.concat_map (fun name ->
         let tbl = table t name in
         Int_tbl.fold (fun k row acc -> (item t ~table:name ~key:k, row) :: acc) tbl []
         |> List.sort (fun (i1, _) (i2, _) -> Item.compare i1 i2))

let total t ~table:name =
  let tbl = table t name in
  Int_tbl.fold (fun _ row acc -> acc + Row.value row) tbl 0
