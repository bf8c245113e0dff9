(** The Local Transaction Manager: the transactional face of one LDBS,
    realizing the paper's assumptions — DDF, RR, RTT, SRS (strict 2PL,
    hence rigorous histories), UAN and TW. Incarnations of global
    subtransactions are ordinary transactions to it.

    Everything is asynchronous against the discrete-event engine;
    unilateral aborts may strike at any point and surface through the
    in-flight command's callback and/or the UAN callback. *)

open Hermes_kernel

type t
type txn

val lock_timeout : int
(** Ticks a lock request may wait before its owner aborts. *)

type abort_reason = Lock_timeout | Deadlock_victim | Dlu_denied | Unilateral | Owner_abort

val pp_abort_reason : abort_reason Fmt.t

type exec_result = Done of Command.result | Failed of abort_reason
type commit_result = Committed | Commit_refused of abort_reason

type stats = {
  mutable begun : int;
  mutable committed : int;
  mutable aborted : int;
  mutable unilateral_aborts : int;
  mutable lock_timeouts : int;
  mutable deadlock_victims : int;
  mutable commands : int;
}

val create :
  engine:Hermes_sim.Engine.t ->
  db:Hermes_store.Database.t ->
  config:Ltm_config.t ->
  trace:Trace.t ->
  ?obs:Hermes_obs.Obs.t ->
  unit ->
  t
(** With [?obs], lock waits, deadlock resolutions and involuntary aborts
    emit {!Hermes_obs.Tracer} events. *)

val site : t -> Site.t
val stats : t -> stats
val bound_registry : t -> Bound.t
val database : t -> Hermes_store.Database.t

val begin_txn : t -> owner:Txn.Incarnation.t -> txn

val exec : t -> txn -> Command.t -> on_done:(exec_result -> unit) -> unit
(** Acquire the command's locks (possibly waiting; lock timeouts and
    deadlock resolution abort the transaction), spend simulated latency,
    apply the elementary operations, call back. At most one command in
    flight per transaction. *)

val commit : t -> txn -> on_done:(commit_result -> unit) -> unit
(** Commits a live transaction (releasing all locks); reports
    [Commit_refused] if it was already aborted. *)

val abort : t -> txn -> unit
(** Owner-initiated rollback (no UAN). Idempotent on terminated txns. *)

val unilateral_abort : t -> txn -> bool
(** The failure injector's entry point: spontaneous LDBS-internal abort.
    Fires UAN. Returns false if the transaction already terminated. *)

val owner : txn -> Txn.Incarnation.t
val last_op_done : txn -> Time.t

val is_alive : txn -> bool
(** The paper's aliveness: all submitted commands completely executed and
    neither committed nor aborted. *)

val is_active : txn -> bool

val status : txn -> (unit -> unit) Hermes_protocol.Local_txn.t
(** The transaction's status automaton, which {!exec}, {!commit} and the
    aborts step; callers read it. *)

val mark_held_open : t -> txn -> bool -> unit
(** Tag set by the 2PC Agent while it simulates the prepared state; the
    failure injector can target held-open transactions (it is told through
    the held-open hook). *)

val set_held_open_hook : t -> (txn -> unit) -> unit
(** Failure-injector hook, fired when a transaction is marked held-open. *)

val set_uan : txn -> (unit -> unit) -> unit
(** Register the Unilateral Abort Notification callback (the UAN
    assumption). *)

val footprint : txn -> Item.t list
(** Items the transaction has accessed — the bound-data set at prepare. *)

val live_txns : t -> txn list
(** The active transactions, oldest first. *)

val tracked : t -> int
(** How many transactions the LTM still holds: those begun and not yet
    committed or aborted. A finished transaction is forgotten, so a
    quiesced run leaves 0. *)

val is_held_open : txn -> bool
