(* Replay semantics: execute a linear history against an abstract store
   that tracks, per item, which incarnation last (physically) wrote it.

   Writes are in-place (as in the simulated LDBSs); a local abort restores
   the before images of everything its incarnation wrote (the RR
   assumption); a local commit makes the incarnation's writes permanent.
   A read observes the current physical writer of the item — under a
   rigorous scheduler that is always a committed (or own) write, but the
   replay does not assume rigorousness, so it can also characterize what a
   broken schedule "really did".

   The outcome — the reads-from relation and the final writer of every
   item — is exactly the data on which view equivalence is defined (§3,
   following Bernstein/Hadzilacos/Goodman, with only committed writes as
   final writes). *)

open Hermes_kernel

type read = {
  reader : Txn.Incarnation.t;
  item : Item.t;
  occurrence : int;  (* 0-based count of this incarnation's reads of this item *)
  from : Txn.Incarnation.t option;  (* None = initializing transaction T_0 *)
}

type outcome = {
  reads : read list;  (* in history order *)
  final : Txn.Incarnation.t option Item.Map.t;  (* physical writer after the last event *)
  uncommitted : Txn.Incarnation.t list;  (* incarnations that wrote but never terminated *)
}

module Int_tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash x = x
end)

(* Per-item state and per-incarnation undo logs are arrays over the
   history's dense ids. An undo log entry is an item and the writer it had
   before the write: an abort restores the entries newest first, which
   leaves each item with the writer it had before the incarnation's first
   overwrite. An empty log means none is open. *)
let run h =
  let ix = History.index h in
  let n_items = Array.length ix.items in
  let state = Array.make n_items None and written = Array.make n_items false in
  let undos = Array.make (Array.length ix.incs) [] in
  (* reads so far per (incarnation, item), keyed [inc * n_items + item] *)
  let occurrences = Int_tbl.create 64 in
  let reads = ref [] in
  History.iteri
    (fun i op ->
      match op with
      | Op.Dml { kind = Read; inc; item; _ } ->
          let k = ix.item_of_op.(i) in
          let key = (ix.inc_of_op.(i) * n_items) + k in
          let occ = Option.value ~default:0 (Int_tbl.find_opt occurrences key) in
          Int_tbl.replace occurrences key (occ + 1);
          reads := { reader = inc; item; occurrence = occ; from = state.(k) } :: !reads
      | Op.Dml { kind = Write; inc; _ } ->
          let j = ix.inc_of_op.(i) and k = ix.item_of_op.(i) in
          undos.(j) <- (k, state.(k)) :: undos.(j);
          state.(k) <- Some inc;
          written.(k) <- true
      | Op.Local_abort _ ->
          let j = ix.inc_of_op.(i) in
          List.iter (fun (k, before) -> state.(k) <- before) undos.(j);
          undos.(j) <- []
      | Op.Local_commit _ -> undos.(ix.inc_of_op.(i)) <- []
      | Op.Prepare _ | Op.Global_commit _ | Op.Global_abort _ -> ())
    h;
  let final = ref Item.Map.empty and uncommitted = ref [] in
  Array.iteri (fun k w -> if w then final := Item.Map.add ix.items.(k) state.(k) !final) written;
  Array.iteri (fun j u -> if u <> [] then uncommitted := ix.incs.(j) :: !uncommitted) undos;
  { reads = List.rev !reads; final = !final; uncommitted = List.rev !uncommitted }

(* The logical (transaction-level) view of an outcome: the paper judges
   reads-from between *transactions* (T^a_11 reads X^a "from T_2"), not
   incarnations, and final writes likewise. *)
type logical_read = {
  l_reader : Txn.Incarnation.t;  (* reader stays incarnation-level: each incarnation has its own view *)
  l_item : Item.t;
  l_occurrence : int;
  l_from : Txn.t option;
}

let logical_reads outcome =
  List.map
    (fun r ->
      {
        l_reader = r.reader;
        l_item = r.item;
        l_occurrence = r.occurrence;
        l_from = Option.map (fun (w : Txn.Incarnation.t) -> w.txn) r.from;
      })
    outcome.reads

let logical_final outcome = Item.Map.map (Option.map (fun (w : Txn.Incarnation.t) -> w.txn)) outcome.final

let pp_read ppf r =
  let pp_from ppf = function None -> Fmt.string ppf "T0" | Some w -> Txn.Incarnation.pp ppf w in
  Fmt.pf ppf "%a reads %a#%d from %a" Txn.Incarnation.pp r.reader Item.pp r.item r.occurrence pp_from r.from
