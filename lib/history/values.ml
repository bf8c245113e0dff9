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
   are never violations.

   Both checks run on the replay kernel ({!Replay.replay}), the replay
   that the reads-from outcome and the distortion footprints use too. *)

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

(* A read is checked against the replay kernel's store at that point:
   its item's physical writer and value, writes applied in place and
   undone on aborts. A [None] value means unknown (e.g. a delete, or an
   unannotated write): subsequent reads of it are not checkable for
   value, only for writer. *)
let check h =
  let ix = History.index h in
  let violations = ref [] in
  ignore
    (Replay.replay h ~on_read:(fun index w cur ->
         match History.get h index with
         | Op.Dml { from; value = Some v; _ } as read ->
             (* Only annotated reads are checkable: a hand-built history's
                [from = None] means "unspecified", not "T_0"; recorded
                traces always carry values, and there [from] is
                authoritative. *)
             let from_ok =
               match from with
               | None -> w < 0
               | Some f -> w >= 0 && (f == ix.incs.(w) || Txn.Incarnation.equal f ix.incs.(w))
             in
             let value_ok = match cur with Some v' -> v = v' | None -> true in
             if not (from_ok && value_ok) then
               violations :=
                 { read; index; expected_from = Replay.writer_of ix w; expected_value = cur } :: !violations
         | _ -> ()));
  List.rev !violations

let consistent h = check h = []

(* The final physical value of every item whose last write carried one —
   for comparing a trace against a database snapshot. *)
let final_values h =
  let ix = History.index h in
  let store = Replay.replay h ~on_read:(fun _ _ _ -> ()) in
  let finals = ref [] in
  Array.iteri (fun k v -> Option.iter (fun v -> finals := (ix.items.(k), v) :: !finals) v) store.value;
  List.sort (fun (i1, _) (i2, _) -> Item.compare i1 i2) !finals
