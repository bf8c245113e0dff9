(** The Coordinator log — a coordinating site's stable 2PC storage,
    mirroring {!Agent_log}: the participant set (forced at BEGIN and
    again, with the serial number, at PREPARE-send) and the global
    decision (forced at decide time). Survives [Dtm.crash_site] on the
    coordinating site; recovery re-drives logged decisions and presumes
    abort for entries with none. *)

open Hermes_kernel

type entry = {
  gid : int;
  mutable participants : Site.t list;
  mutable sn : Sn.t option;  (** force-written with the prepared record *)
  mutable prepared : bool;  (** PREPAREs were sent *)
  mutable decision : bool option;  (** [Some committed] once decided *)
}

type t

val create : unit -> t
val find : t -> gid:int -> entry option
val force_begin : t -> gid:int -> participants:Site.t list -> unit
val force_prepared : t -> gid:int -> participants:Site.t list -> sn:Sn.t -> unit

val force_decision : t -> gid:int -> committed:bool -> unit
(** Idempotent on the decision bit: once forced, a decision never
    changes (later forces still count as force writes). *)

val stage_begin : t -> gid:int -> participants:Site.t list -> unit
val stage_prepared : t -> gid:int -> participants:Site.t list -> sn:Sn.t -> unit

val stage_decision : t -> gid:int -> committed:bool -> unit
(** The force_* records written {e without} their own force: group
    commit stages a batch and the site's batcher pays one {!force_tick}
    per flush.  [stage_decision] is idempotent on the decision bit. *)

val force_tick : t -> unit
(** Account the one synchronous force of a flushed batch. *)

val retire : t -> gid:int -> unit
(** Round [gid] finished (every participant acknowledged its decision):
    drop its participant set, which only recovery of an unfinished round
    reads. The decision and serial number stay. *)

val force_writes : t -> int
