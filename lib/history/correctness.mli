(** The verdict on a recorded history: what "correct" means for a run,
    computed in one place. {!Report} prints it, and the CLI's exit code,
    the experiment suite's "clean" columns and the fuzzer all read
    {!ok}.

    The paper's criterion is view serializability of H, shown through its
    sufficient criterion (§5.1, over the extended committed projection
    C(H) of §3): local rigorousness, no global view distortion and an
    acyclic CG(C(H)) make H view serializable. When C(H) has at most ten
    transactions, view serializability is also decided exactly. Beside
    it, the trace must agree with the execution it records (value
    consistency), and every globally committed transaction must have
    committed at each of its sites (atomic commitment: a committed global
    that is not complete is torn). C(H) is built once; no SG or QSR
    check is made, and nothing is printed. *)

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
  view : View.decision;
      (** the exact view-serializability decision on C(H) when it has at
          most ten transactions, [Too_large] otherwise *)
}

val check : History.t -> t

val check_projection : History.t -> t * History.t
(** {!check} and the C(H) it built, for a caller that goes on to analyse
    C(H); the verdict itself keeps no reference to it. *)

val rigorous : t -> bool
(** No rigorousness violation at any site. *)

val serializable : t -> bool
(** H is certainly view serializable: decided exactly when C(H) is small
    enough, by the sufficient criterion otherwise. *)

val ok : t -> bool
(** The sufficient criterion holds (rigorous at every site, no global
    view distortion, no CG cycle), the exact decision, when made, is not
    [Not_serializable], no value mismatches and no torn transaction. *)
