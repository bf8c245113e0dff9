(** The lock table of one LTM: item-granularity shared/exclusive locks,
    strict-FIFO wait queues, lock upgrades. Policy (hold-to-end, timeouts,
    deadlocks) lives in {!Ltm}; grant callbacks run synchronously inside
    [release_all]/[cancel_waits] and must be deferred by the caller.

    An owner waits on at most one key at a time: it may not request a
    lock while an earlier request of its own is queued. *)

type mode = Shared | Exclusive

val pp_mode : mode Fmt.t

type key = string * int
type t
type outcome = Granted | Waiting

val create : unit -> t

val acquire : t -> key -> owner:int -> mode:mode -> on_grant:(unit -> unit) -> outcome
(** [Granted]: the caller holds the lock now. [Waiting]: [on_grant] will be
    called when granted (unless cancelled). Re-acquiring a held lock (or S
    under X) is a no-op grant; S->X upgrades jump the queue and wait for
    sole-holdership. Raises [Invalid_argument] if [owner] already has a
    queued request. *)

val cancel_waits : t -> owner:int -> (unit -> unit) list
(** Drop the queued request of [owner], if any, found through an
    owner -> key index; returns grant callbacks of requests that became
    grantable behind it. *)

val release_all : t -> owner:int -> (unit -> unit) list
(** Release everything [owner] holds; returns grant callbacks of newly
    granted waiters. *)

val holders : t -> key -> (int * mode) list

val blockers : t -> key -> owner:int -> mode:mode -> int list
(** Holders conflicting with a request — wait-for edges for deadlock
    detection. (Queue-order waits are not edges; the timeout fallback
    covers deadlocks detection misses.) *)

val waiting : t -> (key * int * mode) list
val held_keys : t -> owner:int -> key list
