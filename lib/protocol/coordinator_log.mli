(** The Coordinator log — a coordinating site's stable 2PC storage,
    mirroring {!Agent_log}: the participant set (forced at BEGIN and
    again, with the serial number, at PREPARE-send) and the global
    decision (forced at decide time). Survives a crash of the
    coordinating site; recovery re-drives logged decisions and presumes
    abort for entries with none.

    Written only through {!apply} and {!stage}, over
    {!Coordinator_sm.record}; read back as the machine's [Recover] input
    through {!recover}. The simulator's coordinators and the model
    checker keep the same values. *)

open Hermes_kernel

type entry = private {
  gid : int;
  mutable participants : Site.t list;
  mutable sn : Sn.t option;  (** force-written with the prepared record *)
  mutable prepared : bool;  (** PREPAREs were sent *)
  mutable decision : bool option;  (** [Some committed] once decided *)
}

type t

val create : unit -> t

val copy : t -> t
(** An independent copy: writes to either log never touch the other. *)

val apply : t -> gid:int -> Coordinator_sm.record -> unit
(** A [Force_log] record of round [gid], with its own force write. The
    decision bit is idempotent: once written, a decision never changes
    (a later decision record still counts its force). *)

val stage : t -> gid:int -> Coordinator_sm.record -> unit
(** {!apply} without the force: group commit stages a batch and the
    site's batcher pays one {!force_tick} per flush. *)

val force_tick : t -> unit
(** Account the one synchronous force of a flushed batch. *)

val retire : t -> gid:int -> unit
(** Round [gid] finished (every participant acknowledged its decision):
    drop its participant set, which only recovery of an unfinished round
    reads. The decision and serial number stay. *)

val find : t -> gid:int -> entry option

val recover : t -> gid:int -> Coordinator_sm.input option
(** The [Recover] input that rebuilds round [gid] from its entry, or
    [None] if nothing was ever logged for it. *)

val entries : t -> entry list
(** Every entry, in gid order. *)

val force_writes : t -> int
