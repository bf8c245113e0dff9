(** The verification report of a recorded history: the verdict
    ({!Correctness.check}) and what explains it — the size of C(H), the
    SG(C(H)) cycle and the related-work QSR criterion — printed by
    {!pp}. *)

open Hermes_kernel

type t = {
  n_txns : int;
  n_global : int;
  n_local : int;
  n_ops : int;
  verdict : Correctness.t;
  sg_cycle : Txn.t list option;
  quasi : Quasi.verdict;  (** the related-work [11] criterion, for contrast *)
}

val analyze : History.t -> t
(** One {!Correctness.check_projection}, then SG(C(H)) once for its cycle
    and the QSR verdict. *)

val ok : t -> bool
(** {!Correctness.ok} of the verdict. *)

val pp : t Fmt.t
(** One line per check. The torn globals' line appears only when some
    global is torn. *)
