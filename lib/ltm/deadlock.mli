(** Wait-for-graph deadlock detection (incomplete by design — queue-order
    waits are not edges; the lock-wait timeout is the backstop). *)

val would_deadlock : Lock.t -> waiter:int -> key:Lock.key -> mode:Lock.mode -> bool
(** Would queueing this request close a wait-for cycle through [waiter]? *)
