(* Linear histories: a total order of operations (paper §3, the shuffle of
   the transaction histories). The simulator produces one by tracing; tests
   also build them literally, e.g. the paper's H1, H2, H3.

   The container carries a lazily-built dense index that every checker
   reads: per operation its code and the ids of its transaction,
   incarnation and item, the transactions in first-appearance order, and
   the incarnations grouped by (transaction, site). Building it is the
   one pass that reads every operation: a checker reads an operation
   itself only for a payload the columns do not hold. The per-transaction accessors add
   each transaction's operation positions. The index is built on first
   use and cached, without hashing a string or calling a polymorphic
   hash; it is derived state only, so histories stay values for every
   other purpose. Builders ([of_ops], [filter], [append], ...)
   return unindexed histories; nothing is paid until a checker or a
   per-transaction query asks. *)

open Hermes_kernel

type event = { op : Op.t; at : Time.t; seq : int }

(* The codes, unqualified: here [Op.Read] and [Op.Local_commit] name the
   constructors of [Op.kind] and [Op.t]. *)
type code = Op.code = Read | Write | Local_commit | Local_abort | Prepare | Global_commit | Global_abort

type index = {
  txn_of_op : int array;
  inc_of_op : int array;
  item_of_op : int array;
  code_of_op : Op.code array;
  txns : Txn.t array;
  txn_incs : int array;
  incs : Txn.Incarnation.t array;
  slot_of_inc : int array;
  sites : Site.t array;
  items : Item.t array;
}

(* [find] maps a transaction to its id, or -1. [by_txn] holds the
   transactions' operation positions as CSR slices (offsets by id,
   positions), built on the first per-transaction query: the checkers
   never ask for them. *)
type dense = { ix : index; find : Txn.t -> int; mutable by_txn : (int array * int array) option }

(* A history's operations. [restrict] makes C(H) without a copy of its
   operations: it holds H's, with H's transaction column and the kept
   flags, and the [m] kept operations are copied out when one is first
   asked for. The checkers read C(H)'s index only. *)
type ops = Ops of Op.t array | Kept of { from : Op.t array; txn_of_op : int array; keep : bool array; m : int }
type t = { mutable ops : ops; mutable dense : dense option }

let of_array ops = { ops = Ops ops; dense = None }
let of_ops ops = of_array (Array.of_list ops)

let of_events events =
  let compare a b = match Time.compare a.at b.at with 0 -> Int.compare a.seq b.seq | c -> c in
  of_ops (List.map (fun e -> e.op) (List.sort compare events))

let ops_array t =
  match t.ops with
  | Ops a -> a
  | Kept { from; txn_of_op; keep; m } ->
      let a = if m = 0 then [||] else Array.make m from.(0) and k = ref 0 in
      for i = 0 to Array.length from - 1 do
        if keep.(txn_of_op.(i)) then begin
          a.(!k) <- from.(i);
          incr k
        end
      done;
      t.ops <- Ops a;
      a

let ops t = Array.to_list (ops_array t)
let length t = match t.ops with Ops a -> Array.length a | Kept { m; _ } -> m
let get t i = match t.ops with Ops a -> a.(i) | Kept _ -> (ops_array t).(i)
let append a b = of_array (Array.append (ops_array a) (ops_array b))
let concat ts = of_array (Array.concat (List.map ops_array ts))
let filter f t = of_ops (List.filter f (ops t))

let fold f init t = Array.fold_left f init (ops_array t)
let iteri f t = Array.iteri f (ops_array t)
let exists f t = Array.exists f (ops_array t)

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
let find_spill m k = match Int_tbl.find m.spill k with id -> id | exception Not_found -> -1
let[@inline] find_id m k = if 0 <= k && k < Array.length m.direct then m.direct.(k) else find_spill m k

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

(* A site, its local transactions by number, and its tables as (name,
   item ids by key): a site has a handful of tables. *)
type site_ids = { site : Site.t; locals : ids; mutable tables : (string * ids) list }

let rec table_ids at table = function
  | [] ->
      let keys = ids () in
      at.tables <- (table, keys) :: at.tables;
      keys
  | (name, keys) :: rest -> if String.equal name table then keys else table_ids at table rest

(* The interning pass's state. Each transaction's incarnations form a
   chain, newest first: [newest] holds the head by transaction id,
   [older] the next link by incarnation id, and -1 ends a chain. Sites
   get slots as they are first seen; [inc_slot] holds each incarnation's
   site slot by incarnation id. *)
type interning = {
  sp : space;
  globals : ids;
  site_slot : ids;
  sites : site_ids vec;
  txns : Txn.t vec;
  newest : int vec;
  incs : Txn.Incarnation.t vec;
  older : int vec;
  inc_slot : int vec;
  items : Item.t vec;
}

let[@inline] slot_at st (site : Site.t) =
  match find_id st.site_slot (site :> int) with
  | -1 ->
      let k = push st.sites { site; locals = ids (); tables = [] } in
      add_id st.sp st.site_slot (site :> int) k;
      k
  | k -> k

let[@inline] site_at st site = st.sites.data.(slot_at st site)

let add_txn st m k txn =
  let x = push st.txns txn in
  ignore (push st.newest (-1));
  add_id st.sp m k x;
  x

(* A global transaction by its gid, a local one by its site and then its
   number. *)
let[@inline] txn_id st txn =
  match txn with
  | Txn.Global g -> ( match find_id st.globals g with -1 -> add_txn st st.globals g txn | x -> x)
  | Txn.Local { site; n } -> (
      let locals = (site_at st site).locals in
      match find_id locals n with -1 -> add_txn st locals n txn | x -> x)

(* An incarnation among the (few) its transaction [x] already has,
   walking the chain newest first. *)
let[@inline] inc_id st x (inc : Txn.Incarnation.t) =
  let j = ref st.newest.data.(x) in
  while
    !j >= 0
    &&
    let k : Txn.Incarnation.t = st.incs.data.(!j) in
    not (k == inc || (Int.equal k.inc inc.inc && Site.equal k.site inc.site))
  do
    j := st.older.data.(!j)
  done;
  if !j >= 0 then !j
  else begin
    let j = push st.incs inc in
    ignore (push st.older st.newest.data.(x));
    ignore (push st.inc_slot (slot_at st inc.site));
    st.newest.data.(x) <- j;
    j
  end

(* An item by its (site, table), the table's name compared with each of
   the site's, and then by its key. *)
let[@inline] item_id st (item : Item.t) =
  let at = site_at st item.site in
  let keys = table_ids at item.table at.tables in
  match find_id keys item.key with
  | -1 ->
      let k = push st.items item in
      add_id st.sp keys item.key k;
      k
  | k -> k

(* One pass reads every operation once: it fills the code column and
   interns every site, transaction, incarnation and item without hashing a
   string or calling a polymorphic hash, allocating nothing per
   operation but what a new id stores. The lookups above are inlined
   into it: a lookup that finds its id calls only the walk over its
   site's table names. Ids follow first appearance; the
   incarnations are then renumbered in (transaction id, site,
   incarnation) order. *)
let build ops =
  let n = Array.length ops in
  let st =
    {
      sp = { limit = (4 * n) + 1024; budget = (8 * n) + 4096 };
      globals = ids ();
      site_slot = ids ();
      sites = vec ();
      txns = vec ();
      newest = vec ();
      incs = vec ();
      older = vec ();
      inc_slot = vec ();
      items = vec ();
    }
  in
  let txn_of_op = Array.make n 0 and inc_of_op = Array.make n (-1) and item_of_op = Array.make n (-1) in
  let code_of_op = Array.make n Global_abort in
  for i = 0 to n - 1 do
    match ops.(i) with
    | Op.Dml { kind; inc; item; _ } ->
        let x = txn_id st inc.txn in
        txn_of_op.(i) <- x;
        code_of_op.(i) <- (match kind with Op.Read -> Read | Op.Write -> Write);
        inc_of_op.(i) <- inc_id st x inc;
        item_of_op.(i) <- item_id st item
    | Op.Local_commit inc ->
        let x = txn_id st inc.txn in
        txn_of_op.(i) <- x;
        code_of_op.(i) <- Local_commit;
        inc_of_op.(i) <- inc_id st x inc
    | Op.Local_abort inc ->
        let x = txn_id st inc.txn in
        txn_of_op.(i) <- x;
        code_of_op.(i) <- Local_abort;
        inc_of_op.(i) <- inc_id st x inc
    | Op.Prepare { txn; site; _ } ->
        txn_of_op.(i) <- txn_id st txn;
        code_of_op.(i) <- Prepare;
        ignore (slot_at st site)
    | Op.Global_commit txn ->
        txn_of_op.(i) <- txn_id st txn;
        code_of_op.(i) <- Global_commit
    | Op.Global_abort txn ->
        txn_of_op.(i) <- txn_id st txn;
        code_of_op.(i) <- Global_abort
  done;
  (* Each transaction's incarnations are laid out from its offset in
     [order], newest first, and sorted there by insertion: a transaction
     has a handful. *)
  let incs = st.incs and n_txns = st.txns.len in
  let txn_incs = Array.make (n_txns + 1) 0 and order = Array.make incs.len 0 in
  let before j j' =
    let a : Txn.Incarnation.t = incs.data.(j) and b : Txn.Incarnation.t = incs.data.(j') in
    match Site.compare a.site b.site with 0 -> a.inc < b.inc | c -> c < 0
  in
  for x = 0 to n_txns - 1 do
    let first = txn_incs.(x) and next = ref txn_incs.(x) and j = ref st.newest.data.(x) in
    while !j >= 0 do
      order.(!next) <- !j;
      incr next;
      j := st.older.data.(!j)
    done;
    for p = first + 1 to !next - 1 do
      let j = order.(p) and q = ref p in
      while !q > first && before j order.(!q - 1) do
        order.(!q) <- order.(!q - 1);
        decr q
      done;
      order.(!q) <- j
    done;
    txn_incs.(x + 1) <- !next
  done;
  let renumber = invert order incs.len in
  for i = 0 to n - 1 do
    let j = inc_of_op.(i) in
    if j >= 0 then inc_of_op.(i) <- renumber.(j)
  done;
  let ix =
    {
      txn_of_op;
      inc_of_op;
      item_of_op;
      code_of_op;
      txns = Array.sub st.txns.data 0 n_txns;
      txn_incs;
      incs = Array.map (Array.get incs.data) order;
      slot_of_inc = Array.map (Array.get st.inc_slot.data) order;
      sites = Array.init st.sites.len (fun k -> st.sites.data.(k).site);
      items = Array.sub st.items.data 0 st.items.len;
    }
  in
  let find = function
    | Txn.Global g -> find_id st.globals g
    | Txn.Local { site; n } -> (
        match find_id st.site_slot (site :> int) with -1 -> -1 | s -> find_id st.sites.data.(s).locals n)
  in
  { ix; find; by_txn = None }

let dense t =
  match t.dense with
  | Some d -> d
  | None ->
      let d = build (ops_array t) in
      t.dense <- Some d;
      d

let index t = (dense t).ix

(* Every operation of the kept transactions, with the index restricted
   to them. A kept transaction keeps all its operations, so renumbering
   transactions and incarnations in order keeps first-appearance order
   and the (transaction, site, incarnation) grouping; item ids and site
   slots stay those of the full history. *)
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
  let n = Array.length ix.txn_of_op and m = ref 0 in
  for i = 0 to n - 1 do
    if keep.(ix.txn_of_op.(i)) then incr m
  done;
  let m = !m in
  let txn_of_op = Array.make m 0 and inc_of_op = Array.make m (-1) and item_of_op = Array.make m (-1) in
  let code_of_op = Array.make m Global_abort in
  let k = ref 0 in
  for i = 0 to n - 1 do
    let x = ix.txn_of_op.(i) in
    if keep.(x) then begin
      let k' = !k in
      txn_of_op.(k') <- txn_id.(x);
      (match ix.inc_of_op.(i) with -1 -> () | j -> inc_of_op.(k') <- inc_id.(j));
      item_of_op.(k') <- ix.item_of_op.(i);
      code_of_op.(k') <- ix.code_of_op.(i);
      k := k' + 1
    end
  done;
  let old_txn = invert txn_id !n_txns in
  let txn_incs = Array.make (!n_txns + 1) 0 in
  Array.iteri (fun y x -> txn_incs.(y + 1) <- txn_incs.(y) + ix.txn_incs.(x + 1) - ix.txn_incs.(x)) old_txn;
  let old_inc = invert inc_id !n_incs in
  let ix' =
    {
      txn_of_op;
      inc_of_op;
      item_of_op;
      code_of_op;
      txns = Array.map (Array.get ix.txns) old_txn;
      txn_incs;
      incs = Array.map (Array.get ix.incs) old_inc;
      slot_of_inc = Array.map (Array.get ix.slot_of_inc) old_inc;
      sites = ix.sites;
      items = ix.items;
    }
  in
  let find txn = match find txn with -1 -> -1 | x -> txn_id.(x) in
  {
    ops = Kept { from = ops_array t; txn_of_op = ix.txn_of_op; keep = Array.copy keep; m };
    dense = Some { ix = ix'; find; by_txn = None };
  }

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
      let ops = ops_array t and acc = ref init in
      for p = off.(k) to off.(k + 1) - 1 do
        acc := f !acc ops.(pos.(p))
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
