(* View equivalence and view serializability (paper §3, in the spirit of
   Bernstein/Hadzilacos/Goodman, adapted to incarnations).

   Two histories over the same transactions are view equivalent iff every
   read observes the same (transaction-level) writer and the final writes
   are by the same transactions. The serial yardstick for a history with
   resubmissions places each transaction's complete history H(T_k) —
   including its unilaterally aborted incarnations, which the extended
   committed projection retains — as one contiguous block; the replay
   semantics then resolves what every incarnation would have read.

   Deciding view serializability is NP-complete in general. The exact
   decider is a prefix-pruned DFS over serial orders: a transaction's
   reads in a serial history depend only on the block prefix before it,
   so a prefix whose last block already reads differently from the target
   can never be completed into a witness — the whole subtree is pruned.
   Each extension replays just the added block against an undoable store
   (journal + rollback), instead of re-running the full replay per
   candidate order. Two fast paths short-circuit the search: a
   conflict-serializable history's topological order is tried first
   (almost always a witness, confirmed by replay), and pruning at depth 0
   catches most non-serializable histories early. The blind permutation
   search it replaced lives on in [test/reference/], as the reference
   the tests and benchmarks compare against. *)

open Hermes_kernel

let serial_of_order h order =
  History.concat (List.map (fun x -> History.of_ops (History.ops_of_txn h x)) order)

(* Canonical view data: logical reads sorted by reader/item/occurrence and
   transaction-level final writes. Everything inside is ints, strings and
   plain variants, so structural equality is sound. *)
type view_data = {
  reads : (Txn.Incarnation.t * Item.t * int * Txn.t option) list;
  final : (Item.t * Txn.t option) list;
}

let view_data h =
  let outcome = Replay.run h in
  let reads =
    Replay.logical_reads outcome
    |> List.map (fun (r : Replay.logical_read) -> (r.l_reader, r.l_item, r.l_occurrence, r.l_from))
    |> List.sort Stdlib.compare
  in
  let final = Item.Map.bindings (Replay.logical_final outcome) in
  { reads; final }

let view_equivalent h1 h2 = Stdlib.( = ) (view_data h1) (view_data h2)

type decision =
  | Serializable of Txn.t list  (* a witness serial order *)
  | Not_serializable
  | Too_large  (* beyond the exact-decision limit *)

let equal_decision a b = Stdlib.( = ) a b

let pp_decision ppf = function
  | Serializable order -> Fmt.pf ppf "view serializable as %a" Fmt.(list ~sep:sp Txn.pp) order
  | Not_serializable -> Fmt.string ppf "NOT view serializable"
  | Too_large -> Fmt.string ppf "undecided (too many transactions for exact search)"

(* ------------------------------------------------------------------ *)
(* The pruned-DFS decider                                               *)
(* ------------------------------------------------------------------ *)

(* An undoable replay store: the same semantics as {!Replay.run}, but
   blocks (one transaction's complete ops) are replayed one at a time and
   every store mutation is journalled so a block can be rolled back when
   the DFS backtracks. Undo logs and read-occurrence counters never cross
   block boundaries — a serial block contains all of its transaction's
   operations, so any Local_abort's restores happen inside the block. *)
module Prefix_replay = struct
  type t = {
    state : (Item.t, Txn.Incarnation.t option) Hashtbl.t;
    mutable journal : (Item.t * Txn.Incarnation.t option * bool (* fresh binding *)) list;
  }

  let create () = { state = Hashtbl.create 64; journal = [] }

  let set t item w =
    (match Hashtbl.find_opt t.state item with
    | Some prev -> t.journal <- (item, prev, false) :: t.journal
    | None -> t.journal <- (item, None, true) :: t.journal);
    Hashtbl.replace t.state item w

  (* Replay one block; returns the block's logical reads, sorted with the
     same comparison as {!view_data}. The journal for the block is
     whatever got appended to [t.journal] since the caller's mark. *)
  let replay_block t (block : Op.t array) =
    let undos : (Txn.Incarnation.t, (Item.t * Txn.Incarnation.t option) list ref) Hashtbl.t =
      Hashtbl.create 8
    in
    let occurrences : (Txn.Incarnation.t * Item.t, int) Hashtbl.t = Hashtbl.create 16 in
    let reads = ref [] in
    let writer item = match Hashtbl.find_opt t.state item with Some w -> w | None -> None in
    Array.iter
      (fun op ->
        match op with
        | Op.Dml { kind = Op.Read; inc; item; _ } ->
            let occ = Option.value ~default:0 (Hashtbl.find_opt occurrences (inc, item)) in
            Hashtbl.replace occurrences (inc, item) (occ + 1);
            reads :=
              (inc, item, occ, Option.map (fun (w : Txn.Incarnation.t) -> w.txn) (writer item)) :: !reads
        | Op.Dml { kind = Op.Write; inc; item; _ } ->
            let u =
              match Hashtbl.find_opt undos inc with
              | Some u -> u
              | None ->
                  let u = ref [] in
                  Hashtbl.replace undos inc u;
                  u
            in
            u := (item, writer item) :: !u;
            set t item (Some inc)
        | Op.Local_abort inc -> (
            match Hashtbl.find_opt undos inc with
            | None -> ()
            | Some u ->
                List.iter (fun (item, before) -> set t item before) !u;
                Hashtbl.remove undos inc)
        | Op.Local_commit inc -> Hashtbl.remove undos inc
        | Op.Prepare _ | Op.Global_commit _ | Op.Global_abort _ -> ())
      block;
    List.sort Stdlib.compare !reads

  let mark t = t.journal

  (* Roll the store back to a previous [mark]. *)
  let rollback t mark =
    let rec undo j =
      if j != mark then
        match j with
        | [] -> ()
        | (item, prev, fresh) :: rest ->
            if fresh then Hashtbl.remove t.state item else Hashtbl.replace t.state item prev;
            undo rest
    in
    undo t.journal;
    t.journal <- mark
end

let view_serializable ?(limit = 12) h =
  let txns = History.txns h in
  let n = List.length txns in
  if txns = [] then Serializable []
  else if n > limit then Too_large
  else begin
    let target = view_data h in
    (* Fast path: if SG(H) is acyclic, its topological order is the
       canonical witness candidate — conflict serializability implies view
       serializability for single-incarnation histories, and the replay
       check below confirms (or refutes) it in the incarnation setting. *)
    let matches order = Stdlib.( = ) (view_data (serial_of_order h order)) target in
    let topo =
      match Serialization_graph.G.topological_sort (Serialization_graph.build h) with
      | Some order when matches order -> Some order
      | _ -> None
    in
    match topo with
    | Some order -> Serializable order
    | None ->
        (* Pruned DFS over serial orders. *)
        let blocks = List.map (fun x -> (x, Array.of_list (History.ops_of_txn h x))) txns in
        let target_reads : (Txn.t, (Txn.Incarnation.t * Item.t * int * Txn.t option) list) Hashtbl.t =
          Hashtbl.create 16
        in
        List.iter
          (fun ((reader : Txn.Incarnation.t), _, _, _ as rd) ->
            let key = reader.txn in
            let prev = Option.value ~default:[] (Hashtbl.find_opt target_reads key) in
            Hashtbl.replace target_reads key (rd :: prev))
          (List.rev target.reads);
        (* target.reads is sorted; per-transaction sublists stay sorted. *)
        let target_reads_of x = Option.value ~default:[] (Hashtbl.find_opt target_reads x) in
        let target_final : (Item.t, Txn.t option) Hashtbl.t = Hashtbl.create 16 in
        List.iter (fun (item, w) -> Hashtbl.replace target_final item w) target.final;
        let store = Prefix_replay.create () in
        let final_matches () =
          Hashtbl.length store.Prefix_replay.state = Hashtbl.length target_final
          && Hashtbl.fold
               (fun item w acc ->
                 acc
                 && Hashtbl.find_opt target_final item
                    = Some (Option.map (fun (i : Txn.Incarnation.t) -> i.txn) w))
               store.Prefix_replay.state true
        in
        let rec dfs placed_rev remaining =
          match remaining with
          | [] -> if final_matches () then Some (List.rev placed_rev) else None
          | _ ->
              let rec try_each before_rev = function
                | [] -> None
                | ((x, block) as cand) :: after ->
                    let mark = Prefix_replay.mark store in
                    let reads = Prefix_replay.replay_block store block in
                    let res =
                      if Stdlib.( = ) reads (target_reads_of x) then
                        dfs (x :: placed_rev) (List.rev_append before_rev after)
                      else None
                    in
                    (match res with
                    | Some _ -> res
                    | None ->
                        Prefix_replay.rollback store mark;
                        try_each (cand :: before_rev) after)
              in
              try_each [] remaining
        in
        (match dfs [] blocks with Some order -> Serializable order | None -> Not_serializable)
  end

let conflict_serializable h = Serialization_graph.is_acyclic h
