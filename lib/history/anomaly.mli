(** Detectors for the paper's anomaly classes: global view distortion
    (a resubmitted incarnation gets a different view or decomposition, §4)
    and local view distortion (detected through commit-order-graph cycles,
    §5). Run these on the extended committed projection. *)

open Hermes_kernel

type global_distortion = {
  txn : Txn.t;
  site : Site.t;
  inc_base : int;
  inc_other : int;
  reason : [ `Different_view of Item.t | `Different_decomposition ];
}

val pp_global : global_distortion Fmt.t

type step = { kind : Op.kind; item : Item.t; from : Txn.t option }

val footprints : History.t -> (Txn.Incarnation.t * step list) list
(** Per incarnation: its DML operations in order, reads annotated with the
    logical transaction read from. *)

val global_view_distortions : History.t -> global_distortion list

val commit_order_cycle : History.t -> Txn.t list option
(** A cycle in CG(H), if any — the paper's necessary condition for local
    view distortion. *)
