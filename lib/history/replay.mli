(** Replay semantics: execute a linear history against an abstract store
    tracking per-item physical writers, with in-place writes, undo on local
    abort (RR) and promotion on local commit. The outcome (reads-from +
    final writers) is the data view equivalence is defined on.

    One kernel, {!replay}, does the replay over the history's dense index
    and calls back at every read. {!run} builds the outcome from it,
    {!Values} checks each read's recorded writer and value against it, and
    {!Anomaly} takes the footprints of resubmitted incarnations from
    it. *)

open Hermes_kernel

(** {1 The replay kernel}

    One pass over the history's {!History.index}, which {!run}, {!Values}
    and {!Anomaly} share. Writers are incarnation ids of the index, [-1]
    standing for the initializing transaction T_0. *)

type store = private {
  writer : int array;  (** per item id: the incarnation id of its physical writer *)
  value : int option array;  (** per item id: the value that writer installed, if recorded *)
  written : bool array;  (** per item id: written at least once *)
  uncommitted : bool array;  (** per incarnation id: wrote, and has not terminated since *)
}
(** The store after the last operation. *)

val replay : History.t -> on_read:(int -> int -> int option -> unit) -> store
(** Replays the history in order: writes in place, each incarnation's
    writes undone newest first on its local abort and made permanent on
    its local commit. [on_read i w v] runs at the read at position [i],
    with its item's writer [w] and value [v] at that point. The replay
    branches on the index's columns; the only operations it reads are
    the writes, for the values they install. *)

val writer_of : History.index -> int -> Txn.Incarnation.t option
(** The incarnation a writer id names; [None] for T_0. *)

(** {1 Reads-from and final writers} *)

type read = {
  reader : Txn.Incarnation.t;
  item : Item.t;
  occurrence : int;  (** 0-based count of this incarnation's reads of this item *)
  from : Txn.Incarnation.t option;  (** [None] = initializing transaction T_0 *)
}

type outcome = {
  reads : read list;  (** in history order *)
  final : Txn.Incarnation.t option Item.Map.t;
  uncommitted : Txn.Incarnation.t list;  (** wrote but never terminated *)
}

val run : History.t -> outcome

type logical_read = {
  l_reader : Txn.Incarnation.t;
  l_item : Item.t;
  l_occurrence : int;
  l_from : Txn.t option;
}

val logical_reads : outcome -> logical_read list
(** Reads-from at the transaction level — the granularity the paper judges
    views at (T^a_11 reads X^a "from T_2"). *)

val logical_final : outcome -> Txn.t option Item.Map.t

val pp_read : read Fmt.t
