(** Quasi serializability (Du & Elmagarmid, VLDB 1989 — the paper's [11]):
    equivalence to a history where global transactions run serially.
    Decided via the SCCs of the serialization graph: no component may hold
    two global transactions. Included to exhibit the gap between QSR and
    the paper's view-serializability criterion. *)

open Hermes_kernel

type verdict =
  | Quasi_serializable of Txn.t list  (** witness order of the globals *)
  | Not_quasi_serializable of Txn.t list  (** a non-trivial SCC containing a global *)

val pp_verdict : verdict Fmt.t

val of_graph : Serialization_graph.G.t -> verdict
(** The verdict on a serialization graph already built, e.g. the one
    {!Report.analyze} also searches for a cycle. *)

val check : History.t -> verdict
(** [of_graph (Serialization_graph.build h)]. *)

val is_quasi_serializable : History.t -> bool
