(* Rigorousness checker (the SRS assumption; Breitbart, Georgakopoulos,
   Rusinkiewicz & Silberschatz, IEEE TSE 1991).

   A history is rigorous iff it is strict and no item is written while a
   transaction that read it is still active; equivalently, for every pair
   of conflicting operations o1 in T, o2 in S (T <> S, o1 before o2), T
   terminates (commits or aborts) between o1 and o2. Conflicts are judged
   at the LTM level: each incarnation is an independent local transaction.

   The checker is the independent witness the whole reproduction leans on:
   the Certifier's soundness argument (the Conflict Detection Basis, §4.1)
   assumes local rigorousness, and property tests run this checker over
   the histories our S2PL scheduler actually produced. *)

open Hermes_kernel

type violation = { first : Op.t; first_index : int; second : Op.t; second_index : int }

let pp_violation ppf v =
  Fmt.pf ppf "%a (#%d) conflicts with later %a (#%d) without intervening termination" Op.pp v.first
    v.first_index Op.pp v.second v.second_index

(* The checker is one sweep over the history's dense index. An operation
   o1 of incarnation T stays *active* from its position until T's next
   termination; a later operation o2 violates rigorousness against o1
   exactly when o1 is still active and the two conflict (another
   incarnation, same item, at least one write). So each DML operation
   gets its *expiry*, the position of its incarnation's next
   termination, from one backward pass. An operation of T after T's own
   termination expires later than T's earlier ones and starts afresh,
   as the pairwise rule (termination strictly between the two
   operations) has it. The sweep then visits each item's operations in
   history order. It keeps the item's live operations in groups, one
   per incarnation and expiry, readers apart from writers:

   - a DML operation is reported against every live group of another
     incarnation it conflicts with (a read against the writers, a write
     against readers and writers), and expired groups are dropped on the
     way;
   - it then joins its incarnation's live group, or opens one.

   Every lookup reads an array by dense id, and a scan pays only for the
   groups it reports, its own and the expired ones it drops, so the
   sweep is linear in the history plus the violations reported. It calls
   [report i i'] once for each violating pair of operation positions.
   Two incarnations conflict only if [part] gives them the same number:
   a per-site check keeps an item that incarnations of two sites touch
   apart, as the sites' projections do. *)
let sweep h ~part report =
  let ix = History.index h in
  let n = Array.length ix.inc_of_op and n_incs = Array.length ix.incs in
  let expiry = Array.make n max_int and next = Array.make n_incs max_int in
  for i = n - 1 downto 0 do
    let j = ix.inc_of_op.(i) in
    if j >= 0 then if ix.item_of_op.(i) >= 0 then expiry.(i) <- next.(j) else next.(j) <- i
  done;
  (* Each item's DML operations as (position lsl 1) lor is-write, in
     history order: item k's are [codes.(start.(k))] ..
     [codes.(start.(k + 1) - 1)]. *)
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
        codes.(fill.(k)) <- (i lsl 1) lor is_write;
        fill.(k) <- fill.(k) + 1
      end)
    ix.item_of_op;
  (* A group is named by its first slot in [codes]: [link] chains its
     slots in order, [last.(g)] is its newest. [reader.(j)] and
     [writer.(j)] are incarnation j's newest groups. *)
  let link = Array.make start.(n_items) (-1) and last = Array.make start.(n_items) 0 in
  let reader = Array.make n_incs (-1) and writer = Array.make n_incs (-1) in
  (* [against i j live groups] reports operation i of incarnation j
     against [groups] and adds the live ones to [live]: a group's order
     in its list is free, since the reports are sorted at the end. *)
  let rec against i j live = function
    | [] -> live
    | g :: rest ->
        let i0 = codes.(g) lsr 1 in
        if expiry.(i0) > i then begin
          let j0 = ix.inc_of_op.(i0) in
          if j0 <> j && part.(j0) = part.(j) then begin
            let e = ref g in
            while !e >= 0 do
              report (codes.(!e) lsr 1) i;
              e := link.(!e)
            done
          end;
          against i j (g :: live) rest
        end
        else against i j live rest
  in
  (* Slot p, operation i of incarnation j, joins j's live group in
     [newest], or opens one in [groups]. *)
  let join newest ~first p i j groups =
    let g = newest.(j) in
    if g >= first && expiry.(codes.(g) lsr 1) = expiry.(i) then begin
      link.(last.(g)) <- p;
      last.(g) <- p;
      groups
    end
    else begin
      newest.(j) <- p;
      last.(p) <- p;
      p :: groups
    end
  in
  for k = 0 to n_items - 1 do
    let first = start.(k) in
    let readers = ref [] and writers = ref [] in
    for p = first to start.(k + 1) - 1 do
      let i = codes.(p) lsr 1 in
      let j = ix.inc_of_op.(i) in
      writers := against i j [] !writers;
      if codes.(p) land 1 = 1 then begin
        readers := against i j [] !readers;
        writers := join writer ~first p i j !writers
      end
      else readers := join reader ~first p i j !readers
    done
  done

(* In the order the pairwise rule enumerates them. *)
let by_position a b =
  match Int.compare a.first_index b.first_index with 0 -> Int.compare a.second_index b.second_index | c -> c

(* All rigorousness violations in (what should be) a single-site history,
   at positions in the whole history. *)
let violations h =
  let found = ref [] in
  let part = Array.make (Array.length (History.index h).incs) 0 in
  sweep h ~part (fun i i' ->
      found := { first = History.get h i; first_index = i; second = History.get h i'; second_index = i' } :: !found);
  List.sort by_position !found

let is_rigorous h = violations h = []

(* Every site projection of a global history, from one sweep, over the
   index's site slots. A site is reported when an incarnation or a
   Prepare names it; one named only by a Prepare gets an empty list.
   [pos.(i)] counts the operations of operation i's site before it that
   {!Projection.ltm} keeps, so reported indices are positions in that
   projection. *)
let check_all_sites h =
  let ix = History.index h in
  let n_slots = Array.length ix.sites and slot_of_inc = ix.slot_of_inc in
  let named = Array.make n_slots false in
  let slot_of_site = Int_tbl.create n_slots in
  Array.iteri (fun s site -> Int_tbl.replace slot_of_site (Site.to_int site) s) ix.sites;
  let count = Array.make n_slots 0 and pos = Array.make (History.length h) 0 in
  Array.iteri
    (fun i j ->
      match j with
      | -1 -> (
          match ix.code_of_op.(i) with
          | Op.Prepare -> (
              match History.get h i with
              | Op.Prepare { site; _ } -> named.(Int_tbl.find slot_of_site (Site.to_int site)) <- true
              | _ -> ())
          | _ -> ())
      | j ->
          let s = slot_of_inc.(j) in
          named.(s) <- true;
          pos.(i) <- count.(s);
          count.(s) <- count.(s) + 1)
    ix.inc_of_op;
  let found = Array.make n_slots [] in
  sweep h ~part:slot_of_inc (fun i i' ->
      let s = slot_of_inc.(ix.inc_of_op.(i)) in
      found.(s) <-
        { first = History.get h i; first_index = pos.(i); second = History.get h i'; second_index = pos.(i') }
        :: found.(s));
  let sites = ref [] in
  for s = n_slots - 1 downto 0 do
    if named.(s) then sites := (ix.sites.(s), List.sort by_position found.(s)) :: !sites
  done;
  List.sort (fun (a, _) (b, _) -> Site.compare a b) !sites

let all_sites_rigorous h = List.for_all (fun (_, vs) -> vs = []) (check_all_sites h)
