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

(* The checker is one sweep over the history. An operation o1 of
   incarnation T stays *active* from its position until T's next
   termination; a later operation o2 violates rigorousness against o1
   exactly when o1 is still active and the two conflict (another
   incarnation, same item, at least one write). So the sweep keeps, per
   item, the active DML operations split into readers and writers and
   grouped by incarnation, and per incarnation the items it touched:

   - a DML operation is reported against every active conflicting entry
     (a read against the writers, a write against readers and writers),
     then becomes an active entry itself;
   - a termination of T drops all of T's entries. An operation T issues
     after its own termination is a fresh entry, as the pairwise rule
     (termination strictly between the two operations) has it.

   Each operation pays for the incarnations active on its item, each
   reported pair once, so the cost is near-linear in the history plus the
   violations reported, where the pairwise rule paid O(n^2) pairs with an
   O(n) rescan each. *)
type active = (Txn.Incarnation.t, (int * Op.t) list) Hashtbl.t

type item_state = { readers : active; writers : active }

type sweep = {
  items : (Item.t, item_state) Hashtbl.t;
  touched : (Txn.Incarnation.t, item_state list) Hashtbl.t;
  mutable found : violation list;
}

let create () = { items = Hashtbl.create 64; touched = Hashtbl.create 64; found = [] }

let item_state s item =
  match Hashtbl.find_opt s.items item with
  | Some st -> st
  | None ->
      let st = { readers = Hashtbl.create 4; writers = Hashtbl.create 4 } in
      Hashtbl.add s.items item st;
      st

let add tbl key x = Hashtbl.replace tbl key (x :: Option.value ~default:[] (Hashtbl.find_opt tbl key))

(* [index] is the operation's position in the history being checked. *)
let step s index op =
  match op with
  | Op.Dml { kind; inc; item; _ } ->
      let st = item_state s item in
      let against (tbl : active) =
        Hashtbl.iter
          (fun other entries ->
            if not (Txn.Incarnation.equal other inc) then
              List.iter
                (fun (first_index, first) ->
                  s.found <- { first; first_index; second = op; second_index = index } :: s.found)
                entries)
          tbl
      in
      against st.writers;
      (match kind with
      | Op.Read -> add st.readers inc (index, op)
      | Op.Write ->
          against st.readers;
          add st.writers inc (index, op));
      add s.touched inc st
  | Op.Local_commit inc | Op.Local_abort inc -> (
      match Hashtbl.find_opt s.touched inc with
      | None -> ()
      | Some states ->
          List.iter
            (fun st ->
              Hashtbl.remove st.readers inc;
              Hashtbl.remove st.writers inc)
            states;
          Hashtbl.remove s.touched inc)
  | Op.Prepare _ | Op.Global_commit _ | Op.Global_abort _ -> ()

(* In the order the pairwise rule enumerates them. *)
let finish s =
  List.sort
    (fun a b ->
      match Int.compare a.first_index b.first_index with
      | 0 -> Int.compare a.second_index b.second_index
      | c -> c)
    s.found

(* All rigorousness violations in (what should be) a single-site history. *)
let violations h =
  let s = create () in
  History.iteri (step s) h;
  finish s

let is_rigorous h = violations h = []

(* Check every site projection of a global history, in one pass: each site
   has its own sweep and position counter, which counts exactly the
   operations of {!Projection.ltm}, so reported indices are positions in
   that projection. Sites seen only through a Prepare get an empty list. *)
let check_all_sites h =
  let sites : (Site.t, sweep * int ref) Hashtbl.t = Hashtbl.create 8 in
  let site s =
    match Hashtbl.find_opt sites s with
    | Some x -> x
    | None ->
        let x = (create (), ref 0) in
        Hashtbl.add sites s x;
        x
  in
  History.iteri
    (fun _ op ->
      match op with
      | Op.Dml { inc; _ } | Op.Local_commit inc | Op.Local_abort inc ->
          let s, pos = site inc.Txn.Incarnation.site in
          step s !pos op;
          incr pos
      | Op.Prepare { site = p; _ } -> ignore (site p)
      | Op.Global_commit _ | Op.Global_abort _ -> ())
    h;
  Hashtbl.fold (fun site (s, _) acc -> (site, finish s) :: acc) sites []
  |> List.sort (fun (a, _) (b, _) -> Site.compare a b)

let all_sites_rigorous h = List.for_all (fun (_, vs) -> vs = []) (check_all_sites h)
