(* The bound-data registry — the DLU assumption's enforcement point.

   While a global subtransaction is in the prepared state, the data it
   accessed are *bound* (paper §2). DLU: "if a data item belongs to bound
   data of a global transaction, no local transaction may update it,
   albeit it may read it." The 2PC Agent binds a subtransaction's
   footprint when it sends READY and unbinds at the local commit/rollback;
   the LTM consults the registry when a local transaction asks for an
   exclusive lock.

   Items can be bound by several subtransactions at once (two prepared
   subtransactions may both have *read* the same item), so the registry
   reference-counts per item. *)

open Hermes_kernel

(* Per table name ({!Tables}), the reference count of each bound row
   key. *)
type t = { tables : int Tables.t; mutable denials : int }

let create () = { tables = Tables.create ~rows:64; denials = 0 }

let bind t items =
  List.iter
    (fun item ->
      let rows = Tables.find_or_add t.tables (Item.table item) and k = Item.key item in
      Int_tbl.replace rows k (1 + Option.value ~default:0 (Int_tbl.find_opt rows k)))
    items

let unbind t items =
  List.iter
    (fun item ->
      match Tables.find t.tables (Item.table item) with
      | exception Not_found -> ()
      | rows -> (
          let k = Item.key item in
          match Int_tbl.find_opt rows k with
          | Some n when n > 1 -> Int_tbl.replace rows k (n - 1)
          | Some _ -> Int_tbl.remove rows k
          | None -> ()))
    items

let is_bound t ~table ~key:k =
  match Tables.find t.tables table with rows -> Int_tbl.mem rows k | exception Not_found -> false

let note_denial t = t.denials <- t.denials + 1
let denials t = t.denials
let n_bound t = Tables.fold (fun _ rows acc -> acc + Int_tbl.length rows) t.tables 0
