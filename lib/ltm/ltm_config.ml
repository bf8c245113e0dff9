(* Tunables of one LTM. Defaults model a responsive early-90s DBMS at
   microsecond-tick resolution: elementary operations take tens of
   microseconds (lock waits time out after 50 ms: {!Ltm.lock_timeout}). *)

type deadlock_resolution =
  | Timeout_only  (* the paper's assumption for 2CM (§6) *)
  | Detection_and_timeout  (* wait-for-graph check on block, timeout as backstop *)
  | Wait_die  (* Rosenkrantz et al.: a requester younger than a conflicting holder dies *)
  | Wound_wait  (* an older requester wounds (aborts) younger conflicting holders *)

type t = {
  deadlock : deadlock_resolution;
  cmd_latency : int;  (* fixed per-command processing ticks *)
  op_latency : int;  (* ticks per elementary operation *)
}

let default = { deadlock = Timeout_only; cmd_latency = 100; op_latency = 30 }
