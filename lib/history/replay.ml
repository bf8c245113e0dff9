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
   final writes).

   The replay itself is one kernel over the history's dense index, shared
   by [run], the value checks and the distortion footprints: each asks a
   callback at every read for what it needs. *)

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

(* The replay kernel. Per item id: the incarnation id of its physical
   writer (-1 = T_0) and the value it installed. A write pushes the item's
   writer and value before it onto its incarnation's undo chain; a local
   abort restores the chain newest first, which leaves each item as it
   was before the incarnation's first write to it; a local commit drops
   the chain. A chain is linked entries in flat arrays (item, writer and
   value before, older entry); [top] and [bottom] hold each incarnation's
   newest and oldest entry, or -1. A dropped chain goes whole onto a free
   list that later writes take their entries from, so the arrays hold
   only the writes of incarnations still open at one time. *)
type store = { writer : int array; value : int option array; written : bool array; uncommitted : bool array }

type chains = {
  mutable item : int array;
  mutable before : int array;
  mutable before_value : int option array;
  mutable older : int array;
  mutable len : int;  (* entries ever used *)
  mutable free : int;  (* the newest free entry, linked by [older], or -1 *)
}

let entry c =
  match c.free with
  | -1 ->
      let e = c.len in
      if e = Array.length c.item then begin
        let extend a fill =
          let b = Array.make (max 64 (2 * e)) fill in
          Array.blit a 0 b 0 e;
          b
        in
        c.item <- extend c.item 0;
        c.before <- extend c.before 0;
        c.before_value <- extend c.before_value None;
        c.older <- extend c.older 0
      end;
      c.len <- e + 1;
      e
  | e ->
      c.free <- c.older.(e);
      e

let replay h ~on_read =
  let ix = History.index h in
  let n_items = Array.length ix.items and n_incs = Array.length ix.incs in
  let writer = Array.make n_items (-1) and value = Array.make n_items None in
  let written = Array.make n_items false in
  let top = Array.make n_incs (-1) and bottom = Array.make n_incs (-1) in
  let c = { item = [||]; before = [||]; before_value = [||]; older = [||]; len = 0; free = -1 } in
  let drop j =
    if top.(j) >= 0 then begin
      c.older.(bottom.(j)) <- c.free;
      c.free <- top.(j);
      top.(j) <- -1
    end
  in
  let code = ix.code_of_op in
  for i = 0 to Array.length code - 1 do
    match code.(i) with
    | Op.Read ->
        let k = ix.item_of_op.(i) in
        on_read i writer.(k) value.(k)
    | Op.Write ->
        let j = ix.inc_of_op.(i) and k = ix.item_of_op.(i) and e = entry c in
        c.item.(e) <- k;
        c.before.(e) <- writer.(k);
        c.before_value.(e) <- value.(k);
        c.older.(e) <- top.(j);
        if top.(j) < 0 then bottom.(j) <- e;
        top.(j) <- e;
        writer.(k) <- j;
        (* the one payload the replay reads: the value a write installs *)
        value.(k) <- (match History.get h i with Op.Dml { value = v; _ } -> v | _ -> None);
        written.(k) <- true
    | Op.Local_abort ->
        let j = ix.inc_of_op.(i) in
        let e = ref top.(j) in
        while !e >= 0 do
          let k = c.item.(!e) in
          writer.(k) <- c.before.(!e);
          value.(k) <- c.before_value.(!e);
          e := c.older.(!e)
        done;
        drop j
    | Op.Local_commit -> drop ix.inc_of_op.(i)
    | Op.Prepare | Op.Global_commit | Op.Global_abort -> ()
  done;
  { writer; value; written; uncommitted = Array.map (fun e -> e >= 0) top }

let writer_of (ix : History.index) w = if w < 0 then None else Some ix.incs.(w)

let run h =
  let ix = History.index h in
  let n_items = Array.length ix.items in
  (* reads so far per (incarnation, item), keyed [inc * n_items + item] *)
  let occurrences = Int_tbl.create 64 in
  let reads = ref [] in
  let store =
    replay h ~on_read:(fun i w _ ->
        let j = ix.inc_of_op.(i) and k = ix.item_of_op.(i) in
        let key = (j * n_items) + k in
        let occ = Option.value ~default:0 (Int_tbl.find_opt occurrences key) in
        Int_tbl.replace occurrences key (occ + 1);
        reads := { reader = ix.incs.(j); item = ix.items.(k); occurrence = occ; from = writer_of ix w } :: !reads)
  in
  let final = ref Item.Map.empty and uncommitted = ref [] in
  Array.iteri
    (fun k w -> if w then final := Item.Map.add ix.items.(k) (writer_of ix store.writer.(k)) !final)
    store.written;
  Array.iteri (fun j u -> if u then uncommitted := ix.incs.(j) :: !uncommitted) store.uncommitted;
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
