(* Linear histories: a total order of operations (paper §3, the shuffle of
   the transaction histories). The simulator produces one by tracing; tests
   also build them literally, e.g. the paper's H1, H2, H3.

   The container carries a lazily-built dense index that every checker
   reads: per operation the ids of its transaction, incarnation and item,
   the transactions in first-appearance order, and the incarnations
   grouped by (transaction, site). The per-transaction accessors add
   each transaction's operation positions. The index is built on first
   use and cached, without hashing a string or calling a polymorphic
   hash; it is derived state only, so histories stay values for every
   other purpose. Builders ([of_ops], [filter], [append], ...)
   return unindexed histories; nothing is paid until a checker or a
   per-transaction query asks. *)

open Hermes_kernel

type event = { op : Op.t; at : Time.t; seq : int }

type index = {
  txn_of_op : int array;
  inc_of_op : int array;
  item_of_op : int array;
  txns : Txn.t array;
  txn_incs : int array;
  incs : Txn.Incarnation.t array;
  items : Item.t array;
}

(* [find] maps a transaction to its id, or -1. [by_txn] holds the
   transactions' operation positions as CSR slices (offsets by id,
   positions), built on the first per-transaction query: the checkers
   never ask for them. *)
type dense = { ix : index; find : Txn.t -> int; mutable by_txn : (int array * int array) option }
type t = { ops : Op.t array; mutable dense : dense option }

let of_ops ops = { ops = Array.of_list ops; dense = None }
let of_array ops = { ops; dense = None }

let of_events events =
  let compare a b = match Time.compare a.at b.at with 0 -> Int.compare a.seq b.seq | c -> c in
  of_ops (List.map (fun e -> e.op) (List.sort compare events))

let ops t = Array.to_list t.ops
let length t = Array.length t.ops
let get t i = t.ops.(i)
let append a b = { ops = Array.append a.ops b.ops; dense = None }
let concat ts = { ops = Array.concat (List.map (fun t -> t.ops) ts); dense = None }
let filter f t = { ops = Array.of_list (List.filter f (ops t)); dense = None }

let fold f init t = Array.fold_left f init t.ops
let iteri f t = Array.iteri f t.ops
let exists f t = Array.exists f t.ops

(* A growable array: ids are handed out as values are first seen. *)
type 'a vec = { mutable data : 'a array; mutable len : int }

let vec () = { data = [||]; len = 0 }

let push v x =
  if v.len = Array.length v.data then begin
    let data = Array.make (max 16 (2 * v.len)) x in
    Array.blit v.data 0 data 0 v.len;
    v.data <- data
  end;
  v.data.(v.len) <- x;
  v.len <- v.len + 1;
  v.len - 1

(* Offsets of [n] groups from each member's group: group [g]'s members
   are [pos.(off.(g))] .. [pos.(off.(g + 1) - 1)], ascending. *)
let csr n group_of =
  let off = Array.make (n + 1) 0 in
  Array.iter (fun g -> off.(g + 1) <- off.(g + 1) + 1) group_of;
  for g = 0 to n - 1 do
    off.(g + 1) <- off.(g + 1) + off.(g)
  done;
  let pos = Array.make (Array.length group_of) 0 and fill = Array.sub off 0 n in
  Array.iteri
    (fun i g ->
      pos.(fill.(g)) <- i;
      fill.(g) <- fill.(g) + 1)
    group_of;
  (off, pos)

(* [ids] maps old ids to new ones or -1; the inverse, for [n] new ids. *)
let invert ids n =
  let old = Array.make n 0 in
  Array.iteri (fun o k -> if k >= 0 then old.(k) <- o) ids;
  old

(* Ids of int keys, handed out as keys are first seen. A key in [0,
   limit) indexes a direct array, grown on demand; any other key,
   negative or huge, goes to a spill table. The direct arrays of one
   build share a budget of words, so that no history, however its keys
   are spread, makes the index more than linear in its size: a key whose
   array the budget cannot pay for spills too. Only a key outside its
   map's array is hashed, as an int. *)
type ids = { mutable direct : int array; spill : int Int_tbl.t }
type space = { limit : int; mutable budget : int }

let ids () = { direct = [||]; spill = Int_tbl.create 1 }

(* A key past the array can only be in the spill table. A key of the
   range spills only when the budget cannot pay for an array that holds
   it; the budget only shrinks, so no later array of the map reaches
   that key. *)
let find_id m k =
  if 0 <= k && k < Array.length m.direct then m.direct.(k)
  else match Int_tbl.find m.spill k with id -> id | exception Not_found -> -1

let add_id sp m k id =
  let len = Array.length m.direct in
  if 0 <= k && k < len then m.direct.(k) <- id
  else begin
    let size = min sp.limit (max (k + 1) (max 16 (2 * len))) in
    if 0 <= k && k < sp.limit && size <= sp.budget then begin
      sp.budget <- sp.budget - size;
      let direct = Array.make size (-1) in
      Array.blit m.direct 0 direct 0 len;
      direct.(k) <- id;
      m.direct <- direct
    end
    else Int_tbl.replace m.spill k id
  end

(* A site's local transactions by number, and its tables as (name, item
   ids by key): a site has a handful of tables. *)
type site_ids = { locals : ids; mutable tables : (string * ids) list }

let rec table_ids at table = function
  | [] ->
      let keys = ids () in
      at.tables <- (table, keys) :: at.tables;
      keys
  | (name, keys) :: rest -> if String.equal name table then keys else table_ids at table rest

(* One pass interns every transaction, incarnation and item without
   hashing a string or calling a polymorphic hash. A global transaction
   is found by its gid, a local one by its site and then its number; an
   item by its (site, table), the table's name compared with each of the
   site's, and then by its key. An incarnation is found among the (few)
   incarnations already seen for its transaction. Ids follow first
   appearance; the incarnations are then renumbered in (transaction id,
   site, incarnation) order. *)
let build ops =
  let n = Array.length ops in
  let sp = { limit = (4 * n) + 1024; budget = (8 * n) + 4096 } in
  let txn_of_op = Array.make n 0 and inc_of_op = Array.make n (-1) and item_of_op = Array.make n (-1) in
  let txns = vec () and items = vec () and incs = vec () in
  let incs_of_txn = vec () in
  let globals = ids () and site_slot = ids () and sites = vec () in
  let at_site (site : Site.t) =
    let s = (site :> int) in
    match find_id site_slot s with
    | -1 ->
        let at = { locals = ids (); tables = [] } in
        add_id sp site_slot s (push sites at);
        at
    | k -> sites.data.(k)
  in
  let intern_txn m k txn =
    match find_id m k with
    | -1 ->
        let x = push txns txn in
        ignore (push incs_of_txn []);
        add_id sp m k x;
        x
    | x -> x
  in
  let txn_id txn =
    match txn with
    | Txn.Global g -> intern_txn globals g txn
    | Txn.Local { site; n } -> intern_txn (at_site site).locals n txn
  in
  let intern_inc x (inc : Txn.Incarnation.t) =
    let rec find = function
      | [] ->
          let j = push incs inc in
          incs_of_txn.data.(x) <- j :: incs_of_txn.data.(x);
          j
      | j :: rest ->
          let k : Txn.Incarnation.t = incs.data.(j) in
          if k == inc || (Int.equal k.inc inc.inc && Site.equal k.site inc.site) then j else find rest
    in
    find incs_of_txn.data.(x)
  in
  let item_id (item : Item.t) =
    let at = at_site item.site in
    let keys = table_ids at item.table at.tables in
    match find_id keys item.key with
    | -1 ->
        let k = push items item in
        add_id sp keys item.key k;
        k
    | k -> k
  in
  Array.iteri
    (fun i op ->
      let x = txn_id (Op.txn op) in
      txn_of_op.(i) <- x;
      match op with
      | Op.Dml { inc; item; _ } ->
          inc_of_op.(i) <- intern_inc x inc;
          item_of_op.(i) <- item_id item
      | Op.Local_commit inc | Op.Local_abort inc -> inc_of_op.(i) <- intern_inc x inc
      | Op.Prepare _ | Op.Global_commit _ | Op.Global_abort _ -> ())
    ops;
  (* Each transaction's incarnations are laid out from its offset in
     [order] and sorted there by insertion: a transaction has a handful. *)
  let n_txns = txns.len in
  let txn_incs = Array.make (n_txns + 1) 0 and order = Array.make incs.len 0 in
  let before j j' =
    let a : Txn.Incarnation.t = incs.data.(j) and b : Txn.Incarnation.t = incs.data.(j') in
    match Site.compare a.site b.site with 0 -> a.inc < b.inc | c -> c < 0
  in
  for x = 0 to n_txns - 1 do
    let first = txn_incs.(x) in
    let next =
      List.fold_left
        (fun p j ->
          order.(p) <- j;
          p + 1)
        first incs_of_txn.data.(x)
    in
    for p = first + 1 to next - 1 do
      let j = order.(p) and q = ref p in
      while !q > first && before j order.(!q - 1) do
        order.(!q) <- order.(!q - 1);
        decr q
      done;
      order.(!q) <- j
    done;
    txn_incs.(x + 1) <- next
  done;
  let renumber = invert order incs.len in
  Array.iteri (fun i j -> if j >= 0 then inc_of_op.(i) <- renumber.(j)) inc_of_op;
  let ix =
    {
      txn_of_op;
      inc_of_op;
      item_of_op;
      txns = Array.sub txns.data 0 n_txns;
      txn_incs;
      incs = Array.map (Array.get incs.data) order;
      items = Array.sub items.data 0 items.len;
    }
  in
  let find = function
    | Txn.Global g -> find_id globals g
    | Txn.Local { site; n } -> (
        match find_id site_slot (site :> int) with -1 -> -1 | s -> find_id sites.data.(s).locals n)
  in
  { ix; find; by_txn = None }

let dense t =
  match t.dense with
  | Some d -> d
  | None ->
      let d = build t.ops in
      t.dense <- Some d;
      d

let index t = (dense t).ix

(* Every operation of the kept transactions, with the index restricted
   to them. A kept transaction keeps all its operations, so renumbering
   transactions and incarnations in order keeps first-appearance order
   and the (transaction, site, incarnation) grouping; item ids stay those
   of the full history. *)
let restrict t ~keep =
  let { ix; find; _ } = dense t in
  if Array.length keep <> Array.length ix.txns then invalid_arg "History.restrict: one flag per transaction";
  let txn_id = Array.make (Array.length ix.txns) (-1) and inc_id = Array.make (Array.length ix.incs) (-1) in
  let n_txns = ref 0 and n_incs = ref 0 in
  Array.iteri
    (fun x kept ->
      if kept then begin
        txn_id.(x) <- !n_txns;
        incr n_txns;
        for j = ix.txn_incs.(x) to ix.txn_incs.(x + 1) - 1 do
          inc_id.(j) <- !n_incs;
          incr n_incs
        done
      end)
    keep;
  let m = Array.fold_left (fun m x -> if keep.(x) then m + 1 else m) 0 ix.txn_of_op in
  let ops = if m = 0 then [||] else Array.make m t.ops.(0) in
  let txn_of_op = Array.make m 0 and inc_of_op = Array.make m (-1) and item_of_op = Array.make m (-1) in
  let k = ref 0 in
  Array.iteri
    (fun i x ->
      if keep.(x) then begin
        ops.(!k) <- t.ops.(i);
        txn_of_op.(!k) <- txn_id.(x);
        (match ix.inc_of_op.(i) with -1 -> () | j -> inc_of_op.(!k) <- inc_id.(j));
        item_of_op.(!k) <- ix.item_of_op.(i);
        incr k
      end)
    ix.txn_of_op;
  let old_txn = invert txn_id !n_txns in
  let txn_incs = Array.make (!n_txns + 1) 0 in
  Array.iteri (fun y x -> txn_incs.(y + 1) <- txn_incs.(y) + ix.txn_incs.(x + 1) - ix.txn_incs.(x)) old_txn;
  let ix' =
    {
      txn_of_op;
      inc_of_op;
      item_of_op;
      txns = Array.map (Array.get ix.txns) old_txn;
      txn_incs;
      incs = Array.map (Array.get ix.incs) (invert inc_id !n_incs);
      items = ix.items;
    }
  in
  let find txn = match find txn with -1 -> -1 | x -> txn_id.(x) in
  { ops; dense = Some { ix = ix'; find; by_txn = None } }

(* Transactions in order of first appearance. *)
let txns t = Array.to_list (index t).txns

let global_txns t = List.filter Txn.is_global (txns t)
let local_txns t = List.filter Txn.is_local (txns t)

let fold_ops_of_txn t x f init =
  let d = dense t in
  match d.find x with
  | -1 -> init
  | k ->
      let off, pos =
        match d.by_txn with
        | Some p -> p
        | None ->
            let p = csr (Array.length d.ix.txns) d.ix.txn_of_op in
            d.by_txn <- Some p;
            p
      in
      let acc = ref init in
      for p = off.(k) to off.(k + 1) - 1 do
        acc := f !acc t.ops.(pos.(p))
      done;
      !acc

let ops_of_txn t x = List.rev (fold_ops_of_txn t x (fun acc op -> op :: acc) [])

let sites_of_txn t x =
  fold_ops_of_txn t x
    (fun acc op -> match Op.site op with Some s -> Site.Set.add s acc | None -> acc)
    Site.Set.empty
  |> Site.Set.elements

(* The transaction's incarnations at [site], ascending: a slice of its
   (site, incarnation)-ordered range. *)
let incarnations_of t x ~site =
  let { ix; find; _ } = dense t in
  match find x with
  | -1 -> []
  | k ->
      let acc = ref [] in
      for j = ix.txn_incs.(k + 1) - 1 downto ix.txn_incs.(k) do
        let inc = ix.incs.(j) in
        if Site.equal inc.Txn.Incarnation.site site then acc := inc :: !acc
      done;
      !acc

let incarnations_at t x ~site = List.map (fun (i : Txn.Incarnation.t) -> i.inc) (incarnations_of t x ~site)
let final_incarnation_at t x ~site = List.fold_left (fun _ i -> Some i) None (incarnations_of t x ~site)

let is_globally_committed t x =
  match x with
  | Txn.Global _ ->
      fold_ops_of_txn t x
        (fun acc op -> acc || match op with Op.Global_commit y -> Txn.equal x y | _ -> false)
        false
  | Txn.Local _ ->
      fold_ops_of_txn t x
        (fun acc op ->
          acc || match op with Op.Local_commit inc -> Txn.equal inc.Txn.Incarnation.txn x | _ -> false)
        false

let locally_committed t inc =
  fold_ops_of_txn t inc.Txn.Incarnation.txn
    (fun acc op -> acc || match op with Op.Local_commit j -> Txn.Incarnation.equal inc j | _ -> false)
    false

(* A transaction is committed *and complete* (paper §3) when it is globally
   committed and its final incarnation has locally committed at every site
   it operated at. Local transactions are complete iff committed. *)
let is_complete t x =
  is_globally_committed t x
  && List.for_all
       (fun site ->
         match final_incarnation_at t x ~site with
         | None -> true
         | Some inc -> locally_committed t inc)
       (sites_of_txn t x)

let pp ppf t = Fmt.pf ppf "@[<hov>%a@]" Fmt.(list ~sep:sp Op.pp) (ops t)
let pp_with_from ppf t = Fmt.pf ppf "@[<hov>%a@]" Fmt.(list ~sep:sp Op.pp_with_from) (ops t)
let show t = Fmt.str "%a" pp t
