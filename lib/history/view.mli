(** View equivalence and view serializability — the paper's ultimate
    correctness criterion for C(H) (§3). Exact decisions by a prefix-pruned
    DFS over serial orders (with a conflict-serializable fast path) for
    scenario-size histories. *)

open Hermes_kernel

val serial_of_order : History.t -> Txn.t list -> History.t
(** The serial history placing each transaction's complete history
    (including aborted incarnations) as one contiguous block, in the given
    order. *)

type view_data = {
  reads : (Txn.Incarnation.t * Item.t * int * Txn.t option) list;
  final : (Item.t * Txn.t option) list;
}

val view_data : History.t -> view_data
val view_equivalent : History.t -> History.t -> bool

type decision =
  | Serializable of Txn.t list
  | Not_serializable
  | Too_large

val equal_decision : decision -> decision -> bool
val pp_decision : decision Fmt.t

val view_serializable : ?limit:int -> History.t -> decision
(** Exact decision when the history has at most [limit] (default 12)
    transactions; [Too_large] otherwise. Prefix-pruned DFS: a serial
    prefix is extended only if the appended transaction's replayed reads
    match the target view, each extension replaying just the added block
    against a journalled (undoable) store. When SG(H) is acyclic its
    topological order is tried first and confirmed by a single replay. *)

val conflict_serializable : History.t -> bool
(** SG(H) acyclicity. *)
