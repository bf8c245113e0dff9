(* The serialization graph SG(H) over logical transactions: an edge
   T -> S for each pair of conflicting elementary operations with T's
   operation first. Note the paper's point (§3): with resubmissions,
   SG(C(H)) may be cyclic while H is still view serializable, so acyclicity
   here is evidence, not the correctness criterion.

   Only operations on the same item conflict. A later operation o of S
   on an item conflicts with an earlier one of T there iff S <> T and
   either o is a write after T's first access, or o comes after T's
   first write. The builder interns the transactions once, in
   [Txn.compare] order, keeps each item's operations as (transaction id,
   is-write) codes in history order, and emits each source's successor
   row directly from those rules; no per-edge structure is ever built. *)

open Hermes_kernel

module G = Hermes_graph.Digraph.Make (Txn)

let build h =
  let vertices = Array.of_list (List.sort Txn.compare (History.txns h)) in
  let n = Array.length vertices in
  let id : (Txn.t, int) Hashtbl.t = Hashtbl.create (2 * n) in
  Array.iteri (fun i x -> Hashtbl.replace id x i) vertices;
  (* Each item's DML operations as (id lsl 1) lor is-write, in history
     order. *)
  let by_item : (Item.t, int list ref) Hashtbl.t = Hashtbl.create 64 in
  History.iteri
    (fun _ op ->
      match Op.item op with
      | Some item -> (
          let code = (Hashtbl.find id (Op.txn op) lsl 1) lor Bool.to_int (Op.is_write op) in
          match Hashtbl.find_opt by_item item with
          | Some l -> l := code :: !l
          | None -> Hashtbl.add by_item item (ref [ code ]))
      | None -> ())
    h;
  let items = Array.of_seq (Seq.map (fun l -> Array.of_list (List.rev !l)) (Hashtbl.to_seq_values by_item)) in
  (* Per transaction, each item it touches: (item, first access, first
     write or max_int). *)
  let touched = Array.make n [] in
  let seen_in = Array.make n (-1) and first = Array.make n 0 and first_write = Array.make n 0 in
  Array.iteri
    (fun k ops ->
      let txns = ref [] in
      Array.iteri
        (fun p code ->
          let t = code lsr 1 in
          if seen_in.(t) <> k then begin
            seen_in.(t) <- k;
            first.(t) <- p;
            first_write.(t) <- max_int;
            txns := t :: !txns
          end;
          if code land 1 = 1 && first_write.(t) = max_int then first_write.(t) <- p)
        ops;
      List.iter (fun t -> touched.(t) <- (k, first.(t), first_write.(t)) :: touched.(t)) !txns)
    items;
  (* Rows are emitted in source order; [stamp.(d) = s] marks d as already
     in s's row. *)
  let stamp = Array.make n (-1) and row = Array.make n 0 in
  G.of_rows vertices (fun s ->
      let len = ref 0 in
      List.iter
        (fun (k, f, fw) ->
          let ops = items.(k) in
          for p = f + 1 to Array.length ops - 1 do
            let code = ops.(p) in
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
