(** Linear histories: a total order of operations (paper §3). *)

open Hermes_kernel

type event = { op : Op.t; at : Time.t; seq : int }
(** [seq] is the explicit tie-break for simultaneous events: producers
    assign a monotonically increasing sequence number, so trace->history
    construction is deterministic by contract, not by sort stability. *)

type t

val of_ops : Op.t list -> t

val of_array : Op.t array -> t
(** The history whose operations are the array's, in order. The history
    takes the array over without a copy: the caller must not change it
    afterwards. *)

val of_events : event list -> t
(** Orders by [(at, seq)] — a total, explicit order. *)

val ops : t -> Op.t list
val length : t -> int
val get : t -> int -> Op.t
val append : t -> t -> t
val concat : t list -> t
val filter : (Op.t -> bool) -> t -> t
val fold : ('a -> Op.t -> 'a) -> 'a -> t -> 'a
val iteri : (int -> Op.t -> unit) -> t -> unit
val exists : (Op.t -> bool) -> t -> bool

val txns : t -> Txn.t list
(** In order of first appearance. *)

val global_txns : t -> Txn.t list
val local_txns : t -> Txn.t list

val ops_of_txn : t -> Txn.t -> Op.t list
(** O(ops of the transaction) after a one-off O(history) build of the
    {!index}, which is cached on the history (as are the other
    per-transaction accessors). The cached index makes per-transaction
    queries cheap but is built unsynchronized: share a history across
    domains only after forcing it once (e.g. by calling [txns]; for a
    history made by {!restrict}, also [ops]). *)

val sites_of_txn : t -> Txn.t -> Site.t list

val incarnations_at : t -> Txn.t -> site:Site.t -> int list
(** Incarnation indices of the transaction's subtransaction at [site],
    ascending. *)

val final_incarnation_at : t -> Txn.t -> site:Site.t -> Txn.Incarnation.t option

val is_globally_committed : t -> Txn.t -> bool
(** Global transactions: has a [Global_commit]. Local transactions: has a
    [Local_commit]. *)

val locally_committed : t -> Txn.Incarnation.t -> bool

val is_complete : t -> Txn.t -> bool
(** Committed *and complete* (paper §3): globally committed, and the final
    incarnation locally committed at every involved site. *)

val pp : t Fmt.t
val pp_with_from : t Fmt.t
val show : t -> string

(** {1 Dense index}

    The checkers read a history through one index that gives each
    operation its code and its transaction, incarnation and item dense
    ids. It is built on the first query and cached, in one pass that
    hashes no string and calls no polymorphic hash: a global transaction
    is found by its gid, a local one by its site and number, an item by
    its (site, table) and then its key. Ids are handed out in order of
    first appearance. That pass is the only one that reads every
    operation; a checker branches on the columns and reads an operation
    only for a payload they do not hold. *)

type index = private {
  txn_of_op : int array;  (** per operation: its transaction's id *)
  inc_of_op : int array;  (** per operation: its incarnation's id, or [-1] (prepares, global decisions) *)
  item_of_op : int array;  (** per operation: its item's id, or [-1] (not DML) *)
  code_of_op : Op.code array;  (** per operation: {!Op.code} of it *)
  txns : Txn.t array;  (** by id: the order of first appearance *)
  txn_incs : int array;
      (** transaction [x]'s incarnations have the ids [txn_incs.(x)] ..
          [txn_incs.(x + 1) - 1] *)
  incs : Txn.Incarnation.t array;
      (** by id: ordered by (transaction id, site, incarnation), so each
          subtransaction's incarnations are consecutive and ascending *)
  slot_of_inc : int array;  (** by incarnation id: its site's slot *)
  sites : Site.t array;
      (** by slot: every site an operation names, in order of first
          appearance *)
  items : Item.t array;  (** by id *)
}

val index : t -> index

val restrict : t -> keep:bool array -> t
(** [restrict h ~keep] has every operation of the transactions whose id
    [x] has [keep.(x)], in order, and is indexed on creation: its index
    is [h]'s restricted to those transactions, renumbered in order. Item
    ids and site slots stay [h]'s, so some may not occur in the result. The operations
    themselves are copied out of [h] when the result's are first read:
    a checker that reads the index only never pays for them. Raises
    [Invalid_argument] unless [keep] has one flag per transaction. *)
