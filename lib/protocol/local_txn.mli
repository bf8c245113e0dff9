(** The status of one local transaction inside an LTM: active, a command
    in flight, held open (the simulated prepared state), committed,
    aborted. TCommit's resource-manager state with the LTM's own two.

    The LTM ([Hermes_ltm.Ltm]) and the model checker ({!Explore}) both
    change a status only through these functions. A commit takes effect
    at once; its callback is the caller's and follows later.

    ['w] is the unilateral-abort notification's subscriber. *)

open Hermes_kernel

type status = Active | Committed | Aborted

type 'w t = private {
  inc : int;  (** the incarnation this transaction runs *)
  mutable status : status;
  mutable busy : bool;  (** a command is in flight *)
  mutable held_open : bool;
  mutable last_op_done : Time.t;
  mutable uan : 'w option;
}

val start : inc:int -> now:Time.t -> 'w t
(** Active, idle, not held open, no subscriber. *)

val copy : 'w t -> 'w t
val is_active : 'w t -> bool

val is_alive : 'w t -> bool
(** Active with no command in flight (the paper's aliveness). *)

val current : 'w t -> inc:int -> bool
(** Whether a commit naming incarnation [inc] applies to this
    transaction: only if it runs that incarnation. A commit of an older
    one is stale and is dropped. *)

val hold_open : 'w t -> bool -> unit
val watch : 'w t -> 'w -> unit

val exec : 'w t -> bool
(** Submit a command: [true] once it is in flight, [false] if the
    transaction has aborted. Raises [Invalid_argument] if it has
    committed or a command is already in flight. *)

val exec_done : 'w t -> now:Time.t -> unit
(** The command in flight of an active transaction completed at [now]. *)

type commit = Applied | Already_committed | Refused  (** refused: aborted *)

val commit : 'w t -> commit
(** Commit at once. Raises [Invalid_argument] if a command is in
    flight. *)

val abort : 'w t -> bool
(** [true] iff the transaction was active; a command in flight then
    fails. *)
