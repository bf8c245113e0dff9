(** Tunables of one LTM. The lock-wait timeout is the constant
    {!Ltm.lock_timeout}; local updates of bound data are always denied
    (DLU), and locks are always held to transaction end (SRS). *)

type deadlock_resolution =
  | Timeout_only  (** the paper's assumption for 2CM (§6) *)
  | Detection_and_timeout  (** wait-for-graph check on block, timeout as backstop *)
  | Wait_die  (** a requester younger than a conflicting holder dies (non-preemptive) *)
  | Wound_wait  (** an older requester aborts ("wounds") younger conflicting holders *)

type t = { deadlock : deadlock_resolution; cmd_latency : int; op_latency : int }

val default : t
