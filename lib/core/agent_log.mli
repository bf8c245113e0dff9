(** The Agent log — the 2PC Agent's stable storage, which survives agent
    crashes: appended commands (for resubmission), the force-written
    prepare record with the serial number (Appendix B), the commit record
    (Appendix C) and the biggest committed serial number (§5.3). *)

open Hermes_kernel

type entry = {
  gid : int;
  mutable commands : Command.t list;  (** newest first; use {!commands} *)
  mutable inc : int;
  mutable sn : Sn.t option;
  mutable coordinator : Wire.address option;
  mutable bound : Item.t list;  (** the DLU bound-data set, logged at prepare *)
  mutable prepared : bool;
  mutable committed : bool;  (** the decision (commit record) is durable *)
  mutable locally_committed : bool;  (** the local commit actually happened *)
  mutable rolled_back : bool;
}

type t

val create : unit -> t

val entry : t -> gid:int -> coordinator:Wire.address -> entry
(** Find or create. *)

val find : t -> gid:int -> entry option
val append_command : entry -> Command.t -> unit
val commands : entry -> Command.t list
val note_incarnation : entry -> inc:int -> unit
val force_prepare : t -> entry -> sn:Sn.t -> unit
val force_commit : t -> entry -> unit
(** Idempotent: re-forcing an already-committed entry (a decision
    replayed after recovery) pays no additional force write. *)

val stage_prepare : entry -> sn:Sn.t -> unit

val stage_commit : t -> entry -> unit
(** {!force_prepare} / {!force_commit} without their own force write:
    group commit stages a whole batch of records and pays a single
    {!batch_forced} for all of it.  [stage_commit] is idempotent like
    {!force_commit} and advances the biggest committed serial number. *)

val batch_forced : t -> unit
(** Account the one synchronous force of a staged batch. *)

val note_local_commit : entry -> unit
(** The local commit happened. This finishes the entry: its commands and
    coordinator go, since only recovery of an {!in_doubt} entry reads
    them, and every flag, the serial number and the incarnation stay.
    [bound] is left to the unbind that releases it. *)

val note_rollback : entry -> unit
(** The subtransaction rolled back; finishes the entry like
    {!note_local_commit}. *)

val max_committed_sn : t -> Sn.t option
val force_writes : t -> int

val in_doubt : t -> entry list
(** Prepared, not rolled back, and not yet locally committed — what
    recovery must restore (redoing the local commit when the commit
    record was already forced), in gid order. *)

val n_entries : t -> int
