(* The extended committed projection C(H) of the paper (§3).

   Besides the operations of globally committed *complete* transactions and
   of committed local transactions — as in Bernstein/Hadzilacos/Goodman —
   the paper's C(H) also includes *all unilaterally aborted local
   subtransactions that belong to globally committed complete
   transactions*. It is this extension that makes resubmission anomalies
   visible: in H1, the aborted incarnation T^a_10 stays in C(H1) and
   exposes the two different views T_1 obtained.

   Computed in one linear pass over the history's dense index: per
   transaction whether it committed, per incarnation whether it locally
   committed. C(H) is H's index restricted to the kept transactions. *)

open Hermes_kernel

(* Per transaction id of H's index: whether it committed (a global
   commit, or a local commit of a local transaction), and whether C(H)
   keeps it, that is whether it committed and is complete: the final
   incarnation of each of its subtransactions locally committed. A
   subtransaction's final incarnation is the last of its run in the
   index's (site, incarnation) order. The pass reads the code and site
   slot columns only. *)
let flags h =
  let ix = History.index h in
  let committed = Array.make (Array.length ix.txns) false in
  let inc_committed = Array.make (Array.length ix.incs) false in
  let code = ix.code_of_op in
  for i = 0 to Array.length code - 1 do
    match code.(i) with
    | Op.Global_commit -> committed.(ix.txn_of_op.(i)) <- true
    | Op.Local_commit ->
        let x = ix.txn_of_op.(i) in
        inc_committed.(ix.inc_of_op.(i)) <- true;
        if Txn.is_local ix.txns.(x) then committed.(x) <- true
    | Op.Read | Op.Write | Op.Local_abort | Op.Prepare | Op.Global_abort -> ()
  done;
  let kept =
    Array.mapi
      (fun x committed ->
        let kept = ref committed and last = ix.txn_incs.(x + 1) - 1 in
        for j = ix.txn_incs.(x) to last do
          let final = j = last || ix.slot_of_inc.(j) <> ix.slot_of_inc.(j + 1) in
          if final && not inc_committed.(j) then kept := false
        done;
        !kept)
      committed
  in
  (committed, kept)

(* The extended committed projection: every operation (including operations
   and aborts of unilaterally aborted incarnations) of every kept
   transaction. *)
let extended h = History.restrict h ~keep:(snd (flags h))

(* The classical committed projection: as [extended], but operations of
   aborted incarnations are dropped (only what eventually committed
   remains). Under this projection the H1 anomaly is invisible — which is
   precisely the paper's argument for extending it. *)
let classical h =
  let c = extended h in
  let ix = History.index c in
  let aborted = Array.make (Array.length ix.incs) false in
  Array.iteri
    (fun i (code : Op.code) -> match code with Op.Local_abort -> aborted.(ix.inc_of_op.(i)) <- true | _ -> ())
    ix.code_of_op;
  History.of_ops
    (List.filteri
       (fun i _ ->
         let j = ix.inc_of_op.(i) in
         j < 0 || not aborted.(j))
       (History.ops c))
