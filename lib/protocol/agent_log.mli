(** The Agent log — the 2PC Agent's stable storage, which survives agent
    crashes: appended commands (for resubmission), the force-written
    prepare record with the serial number (Appendix B), the commit record
    (Appendix C) and the biggest committed serial number (§5.3).

    Written only through {!apply} and {!apply_batch}, over
    {!Agent_sm.record} (the DLU bound set through {!set_bound}); read
    back as the machine's inputs through {!view} and {!in_doubt}. The
    simulator's agent and the model checker keep the same values. *)

open Hermes_kernel

type entry = private {
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

val copy : t -> t
(** An independent copy: writes to either log never touch the other. *)

val apply : t -> Agent_sm.record -> unit
(** A [Force_log] record. A prepare record and the first commit record
    each pay one force write; a replayed commit record writes nothing.
    [R_local_commit] and [R_rollback] finish the entry: its commands and
    coordinator go, since only recovery of an {!in_doubt} entry reads
    them; every flag, the serial number and the incarnation stay, and
    [bound] is left to the unbind that releases it. Raises
    [Invalid_argument] for a record of a gid without an entry, except
    [R_entry], which creates one, and [R_rollback], which is then a
    no-op. *)

val apply_batch : t -> Agent_sm.record list -> unit
(** A [Force_batch]: every record as {!apply} writes it, oldest first,
    with one force write for all of them. *)

val set_bound : t -> gid:int -> Item.t list -> Item.t list
(** Replace [gid]'s DLU bound-data set (kept with the entry, so it
    survives a crash); returns the set it replaces. *)

val find : t -> gid:int -> entry option
val commands : entry -> Command.t list

val entries : t -> entry list
(** Every entry, in gid order. *)

val view : t -> gid:int -> Agent_sm.log_view
(** What the log knows about [gid], as the agent machine reads it. *)

val in_doubt : t -> Agent_sm.recover_entry list
(** Prepared, not rolled back, and not yet locally committed — what
    recovery must restore (redoing the local commit when the commit
    record was already forced), in gid order. *)

val max_committed_sn : t -> Sn.t option
val force_writes : t -> int
val n_entries : t -> int
