(* The status of one local transaction inside an LTM: what the 2PC
   Agent's simulated prepared state rests on. It is the resource
   manager's state of TCommit (working, committed, aborted) with the
   LTM's own two: a command in flight, and held open past the last
   command while the agent stands in for a prepared state.

   The LTM ([Hermes_ltm.Ltm]) keeps one per transaction beside its
   locks and undo log, and the model checker ({!Explore}) keeps one per
   (site, gid) in place of an LTM; both change a status only through
   the functions below. A commit takes effect at once and its callback
   follows later, so "committed, callback pending" is a state of both.

   ['w] is whoever the unilateral-abort notification (UAN) goes to: the
   LTM's callback, the checker's subscribed incarnation. *)

open Hermes_kernel

type status = Active | Committed | Aborted

type 'w t = {
  inc : int;  (* the incarnation this transaction runs *)
  mutable status : status;
  mutable busy : bool;  (* a command is in flight *)
  mutable held_open : bool;  (* kept open past its last command (simulated prepared) *)
  mutable last_op_done : Time.t;  (* when the last command completed *)
  mutable uan : 'w option;  (* the UAN subscriber *)
}

let start ~inc ~now =
  { inc; status = Active; busy = false; held_open = false; last_op_done = now; uan = None }

let copy t = { t with inc = t.inc }
let is_active t = t.status = Active

(* The paper's aliveness: active, and every submitted command completely
   executed. *)
let is_alive t = t.status = Active && not t.busy

(* An [L_commit] names the incarnation the machine certified. A
   unilateral abort and a resubmission can overtake a commit withheld by
   group commit; the gid's transaction is then a later incarnation,
   which that commit must not touch. *)
let current t ~inc = t.inc = inc

let hold_open t v = t.held_open <- v
let watch t w = t.uan <- Some w

(* A command is submitted: [true] once it is in flight, [false] if the
   transaction has already aborted (the command fails at once). *)
let exec t =
  match t.status with
  | Aborted -> false
  | Committed -> invalid_arg "Local_txn.exec: transaction already committed"
  | Active ->
      if t.busy then invalid_arg "Local_txn.exec: previous command still in flight";
      t.busy <- true;
      true

(* The command in flight of an active transaction completed at [now]. *)
let exec_done t ~now =
  t.busy <- false;
  t.last_op_done <- now

type commit = Applied | Already_committed | Refused

let commit t =
  match t.status with
  | Aborted -> Refused
  | Committed -> Already_committed
  | Active ->
      if t.busy then invalid_arg "Local_txn.commit: command still in flight";
      t.status <- Committed;
      Applied

(* [true] iff the transaction was active: the abort took effect, and any
   command in flight now fails. *)
let abort t =
  match t.status with
  | Active ->
      t.status <- Aborted;
      t.busy <- false;
      true
  | Committed | Aborted -> false
