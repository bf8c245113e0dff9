(* Operations of a history, following the paper's §3 model.

   A history contains, at the leaf level, the elementary Read and Write
   operations the LTM produced from the DML commands (indexed by logical
   transaction, resubmission/incarnation and site: R_ik[X^s]); above them,
   local Commit and Abort operations of incarnations (C^s_ik, A^s_ik),
   Prepare operations (P^s_i — the 2PCA recorded the decision to send
   READY), and the global Commit/Abort (C_i, A_i — the Coordinator recorded
   its decision in stable storage).

   Reads carry the incarnation the value was read from ([None] = the
   hypothetical initializing transaction T_0), recorded by the simulator or
   computed by the replay semantics; this is what view equivalence is
   judged on. *)

open Hermes_kernel

(* What an operation is, without its payload: the checkers branch on a
   column of these, one per operation, that the history's index fills
   when it interns the operations. Declared before [kind] and [t], so
   that [Op.Read] or [Op.Local_commit] alone still names those. *)
type code = Read | Write | Local_commit | Local_abort | Prepare | Global_commit | Global_abort

type kind = Read | Write

type t =
  | Dml of {
      kind : kind;
      inc : Txn.Incarnation.t;
      item : Item.t;
      from : Txn.Incarnation.t option;  (* reads: the incarnation read from *)
      value : int option;  (* the value observed (reads) or installed (writes); None for
                              hand-built histories and deletes *)
    }
  | Local_commit of Txn.Incarnation.t
  | Local_abort of Txn.Incarnation.t
  | Prepare of { txn : Txn.t; site : Site.t; sn : Sn.t option }
  | Global_commit of Txn.t
  | Global_abort of Txn.t

let read ?value ~inc ~item ~from () = Dml { kind = Read; inc; item; from; value }
let write ?value ~inc ~item () = Dml { kind = Write; inc; item; from = None; value }

let txn = function
  | Dml { inc; _ } | Local_commit inc | Local_abort inc -> inc.Txn.Incarnation.txn
  | Prepare { txn; _ } | Global_commit txn | Global_abort txn -> txn

let site = function
  | Dml { inc; _ } | Local_commit inc | Local_abort inc -> Some inc.Txn.Incarnation.site
  | Prepare { site; _ } -> Some site
  | Global_commit _ | Global_abort _ -> None

let incarnation = function
  | Dml { inc; _ } | Local_commit inc | Local_abort inc -> Some inc
  | Prepare _ | Global_commit _ | Global_abort _ -> None

let item = function Dml { item; _ } -> Some item | _ -> None

let code : t -> code = function
  | Dml { kind = Read; _ } -> Read
  | Dml { kind = Write; _ } -> Write
  | Local_commit _ -> Local_commit
  | Local_abort _ -> Local_abort
  | Prepare _ -> Prepare
  | Global_commit _ -> Global_commit
  | Global_abort _ -> Global_abort

let is_dml = function Dml _ -> true | _ -> false
let is_read = function Dml { kind = Read; _ } -> true | _ -> false
let is_write = function Dml { kind = Write; _ } -> true | _ -> false

(* Two DML operations conflict iff they touch the same item, belong to
   different *logical* transactions, and at least one writes. Operations of
   two incarnations of the same global transaction never conflict — they
   are the same transaction from the global point of view (§3). *)
let conflicts a b =
  match (a, b) with
  | Dml da, Dml db ->
      Item.equal da.item db.item
      && (not (Txn.equal da.inc.Txn.Incarnation.txn db.inc.Txn.Incarnation.txn))
      && (da.kind = Write || db.kind = Write)
  | _ -> false

let pp_inc_suffix ppf (inc : Txn.Incarnation.t) =
  match inc.txn with
  | Txn.Global i -> Fmt.pf ppf "%d.%d" i inc.inc
  | Txn.Local _ -> Txn.pp ppf inc.txn

let pp ppf = function
  | Dml { kind; inc; item; _ } ->
      let k = match kind with Read -> "R" | Write -> "W" in
      Fmt.pf ppf "%s_%a[%a]" k pp_inc_suffix inc Item.pp item
  | Local_commit inc -> Fmt.pf ppf "C^%s_%a" (Site.name inc.site) pp_inc_suffix inc
  | Local_abort inc -> Fmt.pf ppf "A^%s_%a" (Site.name inc.site) pp_inc_suffix inc
  | Prepare { txn; site; _ } -> Fmt.pf ppf "P^%s_%a" (Site.name site) Txn.pp txn
  | Global_commit txn -> Fmt.pf ppf "C_%a" Txn.pp txn
  | Global_abort txn -> Fmt.pf ppf "A_%a" Txn.pp txn

let pp_with_from ppf op =
  match op with
  | Dml { kind = Read; from; _ } ->
      let pp_from ppf = function
        | None -> Fmt.string ppf "T0"
        | Some (w : Txn.Incarnation.t) -> Txn.Incarnation.pp ppf w
      in
      Fmt.pf ppf "%a<-%a" pp op pp_from from
  | _ -> pp ppf op

let show t = Fmt.str "%a" pp t

(* Operations are built from ints, strings and plain variants, so
   structural equality and ordering are sound. *)
let equal (a : t) (b : t) = Stdlib.( = ) a b
let compare (a : t) (b : t) = Stdlib.compare a b
