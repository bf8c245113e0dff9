(* The concrete database state of one LDBS: named tables of integer-keyed
   rows, updated in place. Recovery (the RR assumption) is implemented by
   the undo logs in {!Undo}; this module only provides raw state access.

   Mutation goes through [write] (upsert) and [delete], both of which
   return the before image so the caller can log it. Range scans return
   keys in ascending order, which keeps the decomposition function
   deterministic (DDF). *)

open Hermes_kernel

(* A site has a handful of tables: find one by name in a short list,
   then the row by key in its int table. *)
type table = Row.t Int_tbl.t

type t = { site : Site.t; mutable tables : (string * table) list }

let create ~site = { site; tables = [] }
let site t = t.site

let table t name =
  let rec find = function
    | (name', tbl) :: rest -> if String.equal name name' then tbl else find rest
    | [] ->
        let tbl = Int_tbl.create 64 in
        t.tables <- (name, tbl) :: t.tables;
        tbl
  in
  find t.tables

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

let table_names t = List.map fst t.tables |> List.sort String.compare

let size t = List.fold_left (fun acc (_, tbl) -> acc + Int_tbl.length tbl) 0 t.tables

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
