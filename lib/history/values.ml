(* Value-level cross-checking of a recorded trace.

   The simulator annotates every elementary operation with the value it
   observed (reads) or installed (writes). Re-running the replay semantics
   over the *values* then cross-checks the whole pipeline end to end: a
   read must have observed exactly the value last physically written to
   its item (undone on aborts, like the store itself), and its recorded
   reads-from incarnation must match the physical writer. Any violation
   means the trace and the execution disagree — a simulator bug, a
   corrupted dump, or a hand-built history that tells an impossible story.

   Hand-built histories usually carry no values ([None]); absent values
   are never violations. *)

open Hermes_kernel

type mismatch = {
  read : Op.t;
  index : int;  (* position in the history *)
  expected_from : Txn.Incarnation.t option;
  expected_value : int option;
}

let pp_mismatch ppf m =
  let pp_from ppf = function None -> Fmt.string ppf "T0" | Some w -> Txn.Incarnation.pp ppf w in
  Fmt.pf ppf "#%d %a: expected value %a from %a" m.index Op.pp_with_from m.read
    Fmt.(option ~none:(any "?") int)
    m.expected_value pp_from m.expected_from

(* The replay over values: per item id its physical writer and value,
   writes applied in place, each incarnation's undo log restored on its
   abort and dropped on its commit. A [None] value means unknown (e.g. a
   delete, or an unannotated write): subsequent reads of it are not
   checkable for value, only for writer. [on_read index op writer value]
   sees every read with the item's state at that point; the final values
   are returned, by item id. *)
let replay h on_read =
  let ix = History.index h in
  let n_items = Array.length ix.items in
  let writers = Array.make n_items None and values = Array.make n_items None in
  let undos = Array.make (Array.length ix.incs) [] in
  History.iteri
    (fun index op ->
      match op with
      | Op.Dml { kind = Op.Read; _ } ->
          let k = ix.item_of_op.(index) in
          on_read index op writers.(k) values.(k)
      | Op.Dml { kind = Op.Write; inc; value; _ } ->
          let j = ix.inc_of_op.(index) and k = ix.item_of_op.(index) in
          undos.(j) <- (k, writers.(k), values.(k)) :: undos.(j);
          writers.(k) <- Some inc;
          values.(k) <- value
      | Op.Local_abort _ ->
          let j = ix.inc_of_op.(index) in
          List.iter
            (fun (k, writer, value) ->
              writers.(k) <- writer;
              values.(k) <- value)
            undos.(j);
          undos.(j) <- []
      | Op.Local_commit _ -> undos.(ix.inc_of_op.(index)) <- []
      | Op.Prepare _ | Op.Global_commit _ | Op.Global_abort _ -> ())
    h;
  (ix, values)

let check h =
  let violations = ref [] in
  ignore
    (replay h (fun index op writer cur ->
         match op with
         | Op.Dml { from; value = Some v; _ } ->
             (* Only annotated reads are checkable: a hand-built history's
                [from = None] means "unspecified", not "T_0"; recorded
                traces always carry values, and there [from] is
                authoritative. *)
             let from_ok = Stdlib.( = ) from writer in
             let value_ok = match cur with Some v' -> v = v' | None -> true in
             if not (from_ok && value_ok) then
               violations := { read = op; index; expected_from = writer; expected_value = cur } :: !violations
         | _ -> ()));
  List.rev !violations

let consistent h = check h = []

(* The final physical value of every item whose last write carried one —
   for comparing a trace against a database snapshot. *)
let final_values h =
  let ix, values = replay h (fun _ _ _ _ -> ()) in
  let finals = ref [] in
  Array.iteri (fun k v -> Option.iter (fun v -> finals := (ix.History.items.(k), v) :: !finals) v) values;
  List.sort (fun (i1, _) (i2, _) -> Item.compare i1 i2) !finals
