(** The verdict on a recorded history: what "correct" means for a run.

    The paper's sufficient criterion (§5.1, over the extended committed
    projection C(H) of §3): local rigorousness, no global view distortion
    and an acyclic CG(C(H)) make H view serializable. Beside it, the
    trace must agree with the execution it records (value consistency),
    and every globally committed transaction must have committed at each
    of its sites (atomic commitment: a committed global that is not
    complete is torn). C(H) is built once; no SG, QSR or exact
    view-serializability decision is made, and nothing is printed. *)

open Hermes_kernel

type t = {
  distortions : Anomaly.global_distortion list;  (** global view distortions of C(H) *)
  cg_cycle : Txn.t list option;  (** a cycle in CG(C(H)), if any *)
  rigorous_violations : (Site.t * Rigorous.violation list) list;
      (** per site, as {!Rigorous.check_all_sites} *)
  value_mismatches : Values.mismatch list;  (** as {!Values.check} *)
  torn : Txn.t list;
      (** global transactions that are globally committed but not
          complete ({!History.is_globally_committed} and not
          {!History.is_complete}), in order of first appearance *)
}

val check : History.t -> t

val ok : t -> bool
(** No distortion, no CG cycle, no rigorousness violation at any site,
    no value mismatch and no torn transaction. *)
