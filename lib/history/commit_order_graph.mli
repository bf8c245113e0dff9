(** The commit order graph CG(H) (paper §5.1): arc T_k -> T_i iff a local
    commit of T_k precedes one of T_i at some common site. Local view
    distortion is possible only if CG(C(H)) is cyclic; when acyclic, a
    topological order is a global view serialization order. *)

open Hermes_kernel

val is_acyclic : History.t -> bool
val find_cycle : History.t -> Txn.t list option
val serialization_order : History.t -> Txn.t list option
