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
   and emits each source's successors directly from those rules, each
   once, in the order it finds them; no per-edge structure is ever
   built. Two counting-sort transposes then put every row in ascending
   order: the sources are scattered into one bucket per destination,
   and the destinations, walked in ascending order, are scattered back
   into their sources' rows. Both are linear passes over int arrays, so
   the build is linear in the history plus the graph, with no
   comparison sort but the vertices'. *)

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
  Array.iteri
    (fun i k ->
      if k >= 0 then begin
        let is_write = match ix.code_of_op.(i) with Op.Write -> 1 | _ -> 0 in
        codes.(fill.(k)) <- (rank.(ix.txn_of_op.(i)) lsl 1) lor is_write;
        fill.(k) <- fill.(k) + 1
      end)
    ix.item_of_op;
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
  (* The rows, source after source, each in the order its destinations
     are found: source s's are [dst.(off.(s))] .. [dst.(off.(s + 1) - 1)].
     [stamp.(d) = s] marks d as already in s's row. *)
  let off = Array.make (n + 1) 0 and stamp = Array.make n (-1) in
  let dst = ref (Array.make (max 16 n) 0) and m = ref 0 in
  for s = 0 to n - 1 do
    List.iter
      (fun (k, f, fw) ->
        for p = f + 1 to start.(k + 1) - 1 do
          let code = codes.(p) in
          let d = code lsr 1 in
          if d <> s && (code land 1 = 1 || p > fw) && stamp.(d) <> s then begin
            stamp.(d) <- s;
            if !m = Array.length !dst then begin
              let grown = Array.make (2 * !m) 0 in
              Array.blit !dst 0 grown 0 !m;
              dst := grown
            end;
            !dst.(!m) <- d;
            incr m
          end
        done)
      touched.(s);
    off.(s + 1) <- !m
  done;
  let dst = !dst and m = !m in
  (* First transpose: the sources into one bucket per destination;
     destination d's are [src.(into.(d))] .. [src.(into.(d + 1) - 1)]. *)
  let into = Array.make (n + 1) 0 in
  for e = 0 to m - 1 do
    into.(dst.(e) + 1) <- into.(dst.(e) + 1) + 1
  done;
  for d = 0 to n - 1 do
    into.(d + 1) <- into.(d + 1) + into.(d)
  done;
  let src = Array.make m 0 and fill = Array.sub into 0 n in
  for s = 0 to n - 1 do
    for e = off.(s) to off.(s + 1) - 1 do
      let d = dst.(e) in
      src.(fill.(d)) <- s;
      fill.(d) <- fill.(d) + 1
    done
  done;
  (* Second transpose: the destinations, ascending, back into their
     sources' rows, which [dst] holds again. *)
  let fill = Array.sub off 0 n in
  for d = 0 to n - 1 do
    for e = into.(d) to into.(d + 1) - 1 do
      let s = src.(e) in
      dst.(fill.(s)) <- d;
      fill.(s) <- fill.(s) + 1
    done
  done;
  G.of_rows vertices (fun s -> Array.sub dst off.(s) (off.(s + 1) - off.(s)))

let is_acyclic h = G.is_acyclic (build h)
let find_cycle h = G.find_cycle (build h)
