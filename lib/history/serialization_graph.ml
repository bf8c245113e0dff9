(* The serialization graph SG(H) over logical transactions: an edge
   T -> S for each pair of conflicting elementary operations with T's
   operation first. Note the paper's point (§3): with resubmissions,
   SG(C(H)) may be cyclic while H is still view serializable, so acyclicity
   here is evidence, not the correctness criterion.

   Only operations on the same item conflict. A later operation o of S
   on an item conflicts with an earlier one of T there iff S <> T and
   either o is a write after T's first access, or o comes after T's
   first write. The builder takes the history's dense transaction and
   item ids, remaps the transactions to [Txn.compare] order, keeps each
   item's operations as (transaction, is-write) codes in history order,
   and emits each source's successor row directly from those rules; no
   per-edge structure is ever built. *)

open Hermes_kernel

module G = Hermes_graph.Digraph.Make (Txn)

let build h =
  let ix = History.index h in
  let n = Array.length ix.txns in
  let by_rank = Array.init n Fun.id in
  Array.sort (fun a b -> Txn.compare ix.txns.(a) ix.txns.(b)) by_rank;
  let vertices = Array.map (Array.get ix.txns) by_rank in
  let rank = Array.make n 0 in
  Array.iteri (fun r x -> rank.(x) <- r) by_rank;
  (* Each item's DML operations as (rank lsl 1) lor is-write, in history
     order. *)
  let n_items = Array.length ix.items in
  let start = Array.make (n_items + 1) 0 in
  Array.iter (fun k -> if k >= 0 then start.(k + 1) <- start.(k + 1) + 1) ix.item_of_op;
  for k = 0 to n_items - 1 do
    start.(k + 1) <- start.(k + 1) + start.(k)
  done;
  let codes = Array.make start.(n_items) 0 and fill = Array.sub start 0 n_items in
  History.iteri
    (fun i op ->
      let k = ix.item_of_op.(i) in
      if k >= 0 then begin
        codes.(fill.(k)) <- (rank.(ix.txn_of_op.(i)) lsl 1) lor Bool.to_int (Op.is_write op);
        fill.(k) <- fill.(k) + 1
      end)
    h;
  (* Per transaction, each item it touches: (item, first access, first
     write or max_int), as positions in [codes]. *)
  let touched = Array.make n [] in
  let seen_in = Array.make n (-1) and first = Array.make n 0 and first_write = Array.make n 0 in
  for k = 0 to n_items - 1 do
    let txns = ref [] in
    for p = start.(k) to start.(k + 1) - 1 do
      let t = codes.(p) lsr 1 in
      if seen_in.(t) <> k then begin
        seen_in.(t) <- k;
        first.(t) <- p;
        first_write.(t) <- max_int;
        txns := t :: !txns
      end;
      if codes.(p) land 1 = 1 && first_write.(t) = max_int then first_write.(t) <- p
    done;
    List.iter (fun t -> touched.(t) <- (k, first.(t), first_write.(t)) :: touched.(t)) !txns
  done;
  (* Rows are emitted in source order; [stamp.(d) = s] marks d as already
     in s's row. *)
  let stamp = Array.make n (-1) and row = Array.make n 0 in
  G.of_rows vertices (fun s ->
      let len = ref 0 in
      List.iter
        (fun (k, f, fw) ->
          for p = f + 1 to start.(k + 1) - 1 do
            let code = codes.(p) in
            let d = code lsr 1 in
            if d <> s && (code land 1 = 1 || p > fw) && stamp.(d) <> s then begin
              stamp.(d) <- s;
              row.(!len) <- d;
              incr len
            end
          done)
        touched.(s);
      let r = Array.sub row 0 !len in
      Array.sort Int.compare r;
      r)

let is_acyclic h = G.is_acyclic (build h)
let find_cycle h = G.find_cycle (build h)
